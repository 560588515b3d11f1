import itertools as it
import json

import numpy as np
import pytest

from drgcayley.cli import run
from drgcayley.errors import NotConnectedError, SpecError
from drgcayley.graphs import (
    CayleyGraph,
    IntersectionArray,
    check_distance_regular,
    detect_family,
    export_graph6,
    imprimitivity,
    spectrum,
)
from drgcayley.groups import generated_subgroup, make_group

from reference import (
    antipodal_quotient,
    atoms,
    bipartition_subgroup,
    check_distance_regular_bruteforce,
    clique_number,
    connection_set_fault,
    decode_graph6,
    delsarte_bound,
    halved_graph,
    inverse_closed_sets,
    multipartite_part,
    neg,
    quotient_by_subgroup,
    to_ring,
)


def cay(mods, pairs):
    g = make_group(mods)
    return CayleyGraph(g, [g.element(p) for p in pairs])


def complete_graph(mods):
    g = make_group(mods)
    return CayleyGraph(g, [e for e in g if not e.is_zero])


def cycle_graph(n):
    return cay([n], [[1], [n - 1]])


def crown_graph_z6z3():
    # S = (G \ H) \ {a}, H the order-9 subgroup, a = (3,0)
    g = make_group([6, 3])
    h = {e for e in g if e.coords[0] % 2 == 0}
    s = [e for e in g if e not in h and e.coords != (3, 0)]
    return CayleyGraph(g, s)


def srg942():
    return cay([3, 3], [[1, 0], [2, 0], [0, 1], [0, 2]])


def taylor_cover_z2_5():
    # 2-cover of K_16: S = {(x, Q(x))}, Q = x1 x2 + x3 x4
    g = make_group([2, 2, 2, 2, 2])
    s = []
    for x in it.product([0, 1], repeat=4):
        if any(x):
            s.append(g.element(list(x) + [(x[0] * x[1] + x[2] * x[3]) % 2]))
    return CayleyGraph(g, s)


def hypercube4():
    g = make_group([2, 2, 2, 2])
    return CayleyGraph(g, [g.element(e) for e in np.eye(4, dtype=int).tolist()])


# -- construction --------------------------------------------------------------


def test_build_validation():
    # an element of another group first, then the identity, then inverse
    # closure, whichever other faults the set has
    g = make_group([6, 3])
    z4 = make_group([4])
    zero, one, fifth = g.zero, g.element([1, 0]), g.element([5, 0])
    foreign = f"element of {z4} used with {g}"
    cases = [
        ([z4.element([1])], foreign),
        ([zero], "connection set contains the identity"),
        ([g.element([1, 1])], "connection set is not inverse closed"),
        ([z4.element([1]), zero], foreign),
        ([z4.element([1]), one], foreign),
        ([zero, one], "connection set contains the identity"),
        ([zero, one, fifth, z4.zero], foreign),
    ]
    for conn, message in cases:
        assert connection_set_fault(g, conn) == message
        with pytest.raises(SpecError) as info:
            CayleyGraph(g, conn)
        assert str(info.value) == message
    gr = CayleyGraph(g, [g.element([1, 1]), g.element([5, 2])])
    assert gr.degree == 2


@pytest.mark.parametrize("moduli, foreign", [((6,), (4,)), ((2, 4), (8,)), ((3, 3), (9,)), ((2, 3), (6,))], ids=str)
def test_build_validation_matches_the_element_set_checks(moduli, foreign):
    # every subset of G, and of G with one element of another group (its
    # identity or not), against the GroupElement checks: same message,
    # same precedence
    g = make_group(moduli)
    other = make_group(foreign)
    faults = set()
    for extra in ([], [other.zero], [other.element([1])]):
        pool = list(g.elements()) + extra
        for keep in it.product((False, True), repeat=len(pool)):
            conn = [e for k, e in zip(keep, pool) if k]
            want = connection_set_fault(g, conn)
            faults.add(want)
            if want is None:
                assert CayleyGraph(g, conn).indicator().tolist() == [int(e in conn) for e in g.elements()]
            else:
                with pytest.raises(SpecError) as info:
                    CayleyGraph(g, conn)
                assert str(info.value) == want
    assert len(faults) == 4  # accepted, foreign, identity, not inverse closed


def test_adjacency_symmetric_zero_diagonal():
    gr = srg942()
    A = gr.adjacency()
    assert np.array_equal(A, A.T)
    assert A.trace() == 0
    assert A.sum() == gr.order * gr.degree


# -- distance partitions ---------------------------------------------------------


def test_distance_partition_c5():
    classes = check_distance_regular(cycle_graph(5)).classes
    assert [len(c) for c in classes] == [1, 2, 2]


def test_distance_partition_crown():
    classes = check_distance_regular(crown_graph_z6z3()).classes
    assert [len(c) for c in classes] == [1, 8, 8, 1]


def test_distance_partition_disconnected():
    g = make_group([6, 3])
    gr = CayleyGraph(g, [g.element([1, 0]), g.element([5, 0])])
    with pytest.raises(NotConnectedError):
        check_distance_regular(gr)


# -- the distance-regularity test -------------------------------------------------


def test_k9_array():
    res = check_distance_regular(complete_graph([3, 3]))
    assert res.ok and str(res.array) == "{8;1}"


def test_c5_array():
    res = check_distance_regular(cycle_graph(5))
    assert res.ok and res.array.b == (2, 1) and res.array.c == (1, 1)


def test_srg942_array():
    res = check_distance_regular(srg942())
    assert res.ok
    assert str(res.array) == "{4,2;1,2}"
    assert res.array.a == (1, 2)
    assert res.array.class_sizes() == (1, 4, 4)


def test_crown_array():
    res = check_distance_regular(crown_graph_z6z3())
    assert res.ok and str(res.array) == "{8,7,1;1,7,8}"


def test_hypercube_array():
    res = check_distance_regular(hypercube4())
    assert res.ok and res.array.b == (4, 3, 2, 1) and res.array.c == (1, 2, 3, 4)


def test_taylor_cover_array():
    res = check_distance_regular(taylor_cover_z2_5())
    assert res.ok and str(res.array) == "{15,8,1;1,8,15}"


def test_non_drg_witness():
    # path-like circulant Z_6 with S = {2,3,4}: not distance-regular
    res = check_distance_regular(cay([6], [[2], [3], [4]]))
    assert not res.ok
    assert res.witness is not None


def test_no_diameter3_triple_cover_over_z3_cubed():
    # exhaustive: no odd function on Z_3^2 \ 0 yields an antipodal 3-cover of K_9
    g = make_group([3, 3, 3])
    nonzero = [(a, b) for a in range(3) for b in range(3) if (a, b) != (0, 0)]
    reps = [(0, 1), (1, 0), (1, 1), (1, 2)]
    hits = []
    for vals in it.product(range(3), repeat=4):
        f = {}
        for r, v in zip(reps, vals):
            f[r] = v
            f[(-r[0]) % 3, (-r[1]) % 3] = (-v) % 3
        gr = CayleyGraph(g, [g.element([x[0], x[1], f[x]]) for x in nonzero])
        try:
            res = check_distance_regular(gr)
        except NotConnectedError:
            continue
        if res.ok and res.array.d == 3:
            hits.append(vals)
    assert hits == []


def test_intersection_array_validation():
    with pytest.raises(SpecError):
        IntersectionArray((4, 2), (2, 2))  # c_1 != 1
    with pytest.raises(SpecError):
        IntersectionArray((4,), (1, 1))


# -- oracle equivalence ------------------------------------------------------------


def test_bruteforce_agrees_on_fixtures():
    for gr in [complete_graph([3, 3]), cycle_graph(5), cycle_graph(6), srg942(), crown_graph_z6z3(), hypercube4()]:
        alg = check_distance_regular(gr)
        bf = check_distance_regular_bruteforce(gr)
        assert alg.ok == bf.ok
        if alg.ok:
            assert alg.array == bf.array


def test_bruteforce_agrees_on_random_subsets():
    g = make_group([3, 3])
    els = [e for e in g if not e.is_zero]
    pairs = []
    seen = set()
    for e in els:
        key = frozenset((e, neg(e)))
        if key not in seen:
            seen.add(key)
            pairs.append(tuple(key))
    for mask in range(1, 2 ** len(pairs)):
        s = [e for i, p in enumerate(pairs) if mask >> i & 1 for e in p]
        gr = CayleyGraph(g, s)
        try:
            alg = check_distance_regular(gr)
        except NotConnectedError:
            assert not check_distance_regular_bruteforce(gr).ok
            continue
        bf = check_distance_regular_bruteforce(gr)
        assert alg.ok == bf.ok
        if alg.ok:
            assert alg.array == bf.array


# -- spectra -----------------------------------------------------------------------


def test_k9_spectrum():
    eig = spectrum(complete_graph([3, 3]))
    assert [(v, m) for v, m in zip(eig.values, eig.multiplicities)] == [(8, 1), (-1, 8)]


def test_c5_spectrum():
    import mpmath

    eig = spectrum(cycle_graph(5))
    assert eig.multiplicities == (1, 2, 2)
    assert eig.values[0] == 2
    with mpmath.workdps(30):
        assert abs(eig.numerics[1] - 2 * mpmath.cos(2 * mpmath.pi / 5)) < 1e-12
        assert abs(eig.numerics[2] - 2 * mpmath.cos(4 * mpmath.pi / 5)) < 1e-12
    assert not eig.values[1].is_rational_integer


def test_srg942_spectrum():
    eig = spectrum(srg942())
    assert [(v, m) for v, m in zip(eig.values, eig.multiplicities)] == [(4, 1), (1, 4), (-2, 4)]


def test_taylor_spectrum():
    eig = spectrum(taylor_cover_z2_5())
    assert [(v, m) for v, m in zip(eig.values, eig.multiplicities)] == [
        (15, 1),
        (3, 10),
        (-1, 15),
        (-5, 6),
    ]


def test_bipartite_spectrum_symmetry():
    eig = spectrum(cycle_graph(6))
    vals = [v for v in eig.values]
    assert vals[0] == 2 and vals[-1] == -2
    for v, m, w, mm in zip(eig.values, eig.multiplicities, eig.values[::-1], eig.multiplicities[::-1]):
        assert v == -1 * to_ring(w) and m == mm


def test_level_sets_inverse_closed_and_partition():
    eig = spectrum(crown_graph_z6z3())
    allidx = sorted(i for lev in eig.level_sets for i in lev)
    assert allidx == list(range(18))


def test_integrality_vs_atoms():
    # the spectrum is integral iff S is a union of atoms {x : <x> = <g>}
    def atom_union(group, conn):
        return all(len(conn.intersection(part)) in (0, len(part)) for part in atoms(group))

    for gr, integral in ((complete_graph([3, 3]), True), (cycle_graph(5), False), (srg942(), True)):
        assert all(v.is_rational_integer for v in spectrum(gr).values) is integral
        assert atom_union(gr.group, gr.connection) is integral
    assert atom_union(make_group([5]), frozenset()) is True


# -- imprimitivity and reductions -----------------------------------------------------


def test_imprimitivity_flags():
    crown = crown_graph_z6z3()
    info = imprimitivity(crown)
    assert info.bipartite and info.antipodal
    assert sorted(e.coords for e in info.antipodal_class.elements) == [(0, 0), (3, 0)]

    k33 = cay([3, 3], [[1, 0], [2, 0], [1, 1], [2, 2], [1, 2], [2, 1]])  # complement of <(0,1)>
    info = imprimitivity(k33)
    assert info.antipodal and not info.bipartite

    h25 = cay([5, 5], [[a, 0] for a in range(1, 5)] + [[0, a] for a in range(1, 5)])
    info = imprimitivity(h25)
    assert not info.antipodal and not info.bipartite


def test_antipodal_quotient_crown():
    folded = antipodal_quotient(crown_graph_z6z3())
    assert folded.order == 9
    assert folded.degree == 8  # K_9


def test_antipodal_quotient_c6():
    folded = antipodal_quotient(cycle_graph(6))
    assert folded.order == 3 and folded.degree == 2  # K_3


def test_halved_graphs():
    halved = halved_graph(cycle_graph(6))
    assert halved.order == 3 and halved.degree == 2  # C_3 = K_3

    halved = halved_graph(crown_graph_z6z3())
    assert halved.order == 9 and halved.degree == 8  # K_9

    halved = halved_graph(hypercube4())
    res = check_distance_regular(halved)
    assert halved.order == 8 and str(res.array) == "{6,1;1,6}"  # K_{4x2}


def test_halved_rejects_non_bipartite():
    with pytest.raises(SpecError):
        halved_graph(complete_graph([3, 3]))


def test_bipartition_subgroup_index2():
    h = bipartition_subgroup(hypercube4())
    assert h.order == 8


def test_quotient_by_subgroup_taylor():
    gr = taylor_cover_z2_5()
    check = check_distance_regular(gr)
    info = imprimitivity(gr, check)
    H = info.antipodal_class
    triv = generated_subgroup(gr.group, [gr.group.zero])

    q1, arr1 = quotient_by_subgroup(gr, triv, check)
    assert arr1 == check.array and q1.order == 32

    q2, arr2 = quotient_by_subgroup(gr, H, check)
    assert str(arr2) == "{15;1}" and q2.order == 16 and q2.degree == 15


def test_quotient_by_subgroup_rejects_bipartite():
    crown = crown_graph_z6z3()
    check = check_distance_regular(crown)
    info = imprimitivity(crown, check)
    with pytest.raises(SpecError):
        quotient_by_subgroup(crown, info.antipodal_class, check)


# -- cliques and bounds ---------------------------------------------------------------


def test_clique_numbers():
    assert clique_number(complete_graph([3, 3])) == 9
    assert clique_number(cycle_graph(6)) == 2
    assert clique_number(cycle_graph(5)) == 2
    assert clique_number(srg942()) == 3


def test_delsarte_bounds():
    assert delsarte_bound(complete_graph([3, 3])) == 9
    assert delsarte_bound(srg942()) == 3
    assert delsarte_bound(cycle_graph(5)) == 2  # floor(1 - 2/(2cos(4pi/5)))


def test_clique_le_delsarte():
    for gr in [complete_graph([3, 3]), srg942(), cycle_graph(6), crown_graph_z6z3(), hypercube4()]:
        assert clique_number(gr) <= delsarte_bound(gr)


# -- family detection -------------------------------------------------------------------


def test_family_labels():
    assert str(detect_family(complete_graph([3, 3]))) == "complete(n=9)"
    assert str(detect_family(crown_graph_z6z3())) == "crown(m=9)"
    assert str(detect_family(cycle_graph(5))) in ("cycle(n=5)", "paley(n=5)")

    g = make_group([6, 3])
    h6 = generated_subgroup(g, [g.element([1, 0])])  # order 6
    s = [e for e in g if e not in set(h6.elements)]
    lab = detect_family(CayleyGraph(g, s))
    assert str(lab) == "multipartite(t=3,m=6)"

    assert str(detect_family(srg942())) == "union-of-order-p-subgroups(p=3,r=2)"

    paley13 = cay([13], [[pow(x, 2, 13)] for x in range(1, 13)])
    assert str(detect_family(paley13)) == "paley(n=13)"

    assert str(detect_family(cycle_graph(7))) == "cycle(n=7)"
    assert str(detect_family(taylor_cover_z2_5())) == "none"


@pytest.mark.parametrize("moduli", [(12,), (2, 2, 2), (3, 3), (6, 2)], ids=str)
def test_multipartite_label_matches_the_element_set_closure(moduli):
    g = make_group(moduli)
    seen = []
    for conn in inverse_closed_sets(g):
        graph = CayleyGraph(g, conn)
        try:
            if not check_distance_regular(graph).ok:
                continue
        except NotConnectedError:
            continue
        label = detect_family(graph)
        h = multipartite_part(graph)
        if len(conn) == g.order - 1:
            assert label.kind == "complete"
        elif h is not None:
            assert label.params == (("t", g.order // h.order), ("m", h.order))
            assert label.kind == "multipartite"
        else:
            assert label.kind not in ("complete", "multipartite")
        seen.append(label.kind)
    assert "multipartite" in seen and len(set(seen)) > 2


# -- graph6 -------------------------------------------------------------------------------


def test_graph6_k3():
    assert export_graph6(complete_graph([3])) == "Bw"


def test_graph6_roundtrip_fixtures():
    for gr in [cycle_graph(5), srg942(), crown_graph_z6z3(), hypercube4(), taylor_cover_z2_5(), cycle_graph(2048)]:
        assert np.array_equal(decode_graph6(export_graph6(gr)), gr.adjacency())


def test_graph6_roundtrip_random():
    rng = np.random.default_rng(11)
    g = make_group([12])
    els = [e for e in g if not e.is_zero]
    for _ in range(100):
        s = set()
        for e in els:
            if rng.random() < 0.4:
                s.add(e)
                s.add(neg(e))
        if not s:
            continue
        gr = CayleyGraph(g, s)
        assert np.array_equal(decode_graph6(export_graph6(gr)), gr.adjacency())


def test_graph6_long_form():
    g = make_group([63])
    gr = CayleyGraph(g, [g.element([1]), g.element([62])])
    enc = export_graph6(gr)
    assert enc.startswith("~")
    assert np.array_equal(decode_graph6(enc), gr.adjacency())


# -- report ---------------------------------------------------------------------------------


def test_graph_report_shape(capsys):
    def report(*argv):
        code = run(["--format", "json", *argv])
        return code, json.loads(capsys.readouterr().out)

    code, rep = report("check", "--group", "3,3", "--set", "1,0;2,0;0,1;0,2")
    assert code == 0 and rep["ok"] is True
    assert rep["intersection_array"]["b"] == [4, 2] and rep["intersection_array"]["c"] == [1, 2]
    assert rep["family"] == "union-of-order-p-subgroups"
    code, rep = report("spectrum", "--group", "3,3", "--set", "1,0;2,0;0,1;0,2")
    assert code == 0 and sum(e["multiplicity"] for e in rep["eigenvalues"]) == 9
    assert all(float(e["value_exact"]) == e["value_numeric"] for e in rep["eigenvalues"])  # integral

    code, rep = report("check", "--group", "6", "--set", "2;3;4")
    assert code == 1 and rep["ok"] is False and "witness" in rep
