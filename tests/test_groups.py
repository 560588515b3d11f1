import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgcayley import classify, groups
from drgcayley.algebra import character_table
from drgcayley.classify import classify_group
from drgcayley.cli import parse_connection
from drgcayley.constructions import order_p_subgroups
from drgcayley.errors import SpecError
from drgcayley.graphs import CayleyGraph, detect_family
from drgcayley.groups import (
    MAX_ORDER,
    Subgroup,
    all_subgroups,
    automorphisms,
    canonicalize_connection_set,
    check_orbit_bits,
    generated_subgroup,
    is_prime,
    make_group,
    maximal_subgroups,
    parse_element,
    parse_element_set,
    parse_group,
)

from reference import atoms, element_order, neg, quotient_group, scale, smith_normal_form, subgroup_as_group

POOL = [make_group(m) for m in ([2], [5], [6], [4, 2], [3, 3], [6, 3], [2, 2, 2], [12])]


def test_group_basics():
    g = make_group([6, 3])
    assert g.order == 18
    assert g.exponent == 6
    assert g.rank == 2
    assert str(g) == "6,3"
    assert len(list(g)) == 18


def test_trivial_group():
    t = make_group([])
    assert t.order == 1
    assert t.zero in list(t)
    assert parse_group("1").order == 1


def test_order_bound():
    with pytest.raises(SpecError):
        make_group([2049])
    make_group([2048])  # boundary is inclusive


def test_parsing_roundtrip():
    g = parse_group("6,3")
    e = parse_element(g, "4,2")
    assert e.coords == (4, 2)
    s = parse_element_set(g, "1,0;2,0;0,1")
    assert len(s) == 3
    with pytest.raises(SpecError):
        parse_group("6,x")
    with pytest.raises(SpecError):
        parse_element(g, "1")


def test_element_arithmetic():
    g = make_group([6, 3])
    a = g.element([4, 2])
    b = g.element([3, 2])
    assert (a + b).coords == (1, 1)
    assert (a + neg(b)).coords == (1, 0)
    assert neg(a).coords == (2, 1)
    assert scale(5, a).coords == (2, 1)
    assert element_order(a) == 3
    assert element_order(g.element([1, 0])) == 6


def test_index_roundtrip():
    g = make_group([6, 3])
    for i in range(g.order):
        assert g.from_index(i).index == i
    assert g.element([1, 2]).index == 1 * 3 + 2


def test_tables_match_elementwise_ops():
    g = make_group([4, 2])
    add, neg_tab = g.add_table(), g.neg_table()
    els = g.elements()
    for i, a in enumerate(els):
        assert els[neg_tab[i]] == neg(a)
        for j, b in enumerate(els):
            assert els[add[i, j]] == a + b
    sub = g.sub_table()
    assert els[sub[3, 5]] == els[3] + neg(els[5])


def test_mixed_group_elements_rejected():
    g, h = make_group([6]), make_group([3])
    with pytest.raises(SpecError):
        g.add(g.element([1]), h.element([1]))


# -- frozen subgroup lattice counts -------------------------------------------


def test_subgroup_counts_z3z3():
    g = make_group([3, 3])
    subs = all_subgroups(g)
    assert len(subs) == 6
    assert len([h for h in subs if h.order == 3]) == 4
    assert len([h for h in subs if h.order == 1]) == 1
    assert len([h for h in subs if h.order == 9]) == 1


def test_subgroup_counts_z6():
    assert len(all_subgroups(make_group([6]))) == 4


def test_subgroup_counts_z4z2():
    # 1 trivial + 3 of order 2 + 3 of order 4 + the whole group
    g = make_group([4, 2])
    subs = all_subgroups(g)
    assert [h.order for h in subs] == [1, 2, 2, 2, 4, 4, 4, 8]


def test_generated_subgroup():
    g = make_group([6])
    h = generated_subgroup(g, [g.element([2])])
    assert [e.coords for e in h.elements] == [(0,), (2,), (4,)]
    assert g.element([4]) in h
    assert g.element([3]) not in h


def test_atoms_z6():
    g = make_group([6])
    parts = atoms(g)
    assert [[e.coords[0] for e in p] for p in parts] == [[0], [1, 5], [2, 4], [3]]


def test_maximal_subgroups_z9z3():
    g = make_group([9, 3])
    maxes = maximal_subgroups(g)
    assert len(maxes) == 4
    assert all(h.order == 9 for h in maxes)


# -- Smith normal form and derived groups (tests/reference.py) -------------------------------------


def test_snf_identities():
    mats = [
        [[6, 0, 3], [0, 3, 0]],
        [[12, 4]],
        [[2, 4, 4], [-6, 6, 12], [10, 4, 16]],
        [[1, 2], [3, 4]],
        [[0, 0], [0, 0]],
    ]
    for A in mats:
        S, U, V = smith_normal_form(A)
        rows, cols = len(A), len(A[0])
        UA = [[sum(U[i][k] * A[k][j] for k in range(rows)) for j in range(cols)] for i in range(rows)]
        UAV = [[sum(UA[i][k] * V[k][j] for k in range(cols)) for j in range(cols)] for i in range(rows)]
        assert UAV == S
        diag = [S[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert S[i][j] == 0
        for a, b in zip(diag, diag[1:]):
            if a:
                assert b % a == 0
            else:
                assert b == 0
        assert all(d >= 0 for d in diag)


def test_snf_known_diagonal():
    S, _, _ = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    assert [S[i][i] for i in range(3)] == [2, 2, 156]


def test_quotient_z6z3_by_order2():
    g = make_group([6, 3])
    h = generated_subgroup(g, [g.element([3, 0])])
    q, proj = quotient_group(g, h)
    assert q.order == 9
    assert sorted(q.moduli) == [3, 3]
    # homomorphism property
    for a in list(g)[:8]:
        for b in list(g)[:8]:
            assert proj(a + b) == proj(a) + proj(b)


def test_quotient_z12_by_order3():
    g = make_group([12])
    h = generated_subgroup(g, [g.element([4])])
    q, proj = quotient_group(g, h)
    assert q.moduli == (4,)
    assert proj(g.element([5])) != q.zero
    images = {proj(x) for x in g}
    assert len(images) == 4


def test_subgroup_as_group_klein():
    g = make_group([4, 2])
    h = generated_subgroup(g, [g.element([2, 0]), g.element([0, 1])])
    k, iso = subgroup_as_group(h)
    assert sorted(k.moduli) == [2, 2]
    assert len(set(iso.values())) == 4
    for a in h.elements:
        for b in h.elements:
            assert iso[a + b] == iso[a] + iso[b]


def test_subgroup_as_group_cyclic():
    g = make_group([6])
    h = generated_subgroup(g, [g.element([2])])
    k, iso = subgroup_as_group(h)
    assert k.moduli == (3,)
    assert iso[g.element([0])] == k.zero


# -- character pairing ---------------------------------------------------------


def test_pairing_z6():
    g = make_group([6])
    table = character_table(g)
    assert table[g.index(g.element([1]))].tolist() == [0, 1, 2, 3, 4, 5]
    assert table[g.index(g.element([2])), g.index(g.element([4]))] == 2


def test_pairing_bilinear():
    g = make_group([6, 3])
    m = g.exponent
    els = g.elements()
    rng = np.random.default_rng(7)
    e = character_table(g)
    for _ in range(40):
        a, b, x = (els[rng.integers(g.order)] for _ in range(3))
        assert e[(a + b).index, x.index] == (e[a.index, x.index] + e[b.index, x.index]) % m
        assert e[a.index, x.index] == e[x.index, a.index]


def test_pairing_nondegenerate():
    g = make_group([6, 3])
    e = character_table(g)
    for x in g:
        if not x.is_zero:
            assert any(e[g0.index, x.index] != 0 for g0 in g)


# -- automorphisms --------------------------------------------------------------


def test_automorphism_counts():
    assert len(automorphisms(make_group([6]))) == 2
    assert len(automorphisms(make_group([3, 3]))) == 48
    assert len(automorphisms(make_group([4, 2]))) == 8
    assert len(automorphisms(make_group([15, 3]))) == 192


def test_automorphisms_are_homomorphisms():
    g = make_group([4, 2])
    add = g.add_table()
    for p in automorphisms(g):
        assert p[0] == 0
        assert np.array_equal(p[add], add[np.ix_(p, p)])


def test_canonicalize_connection_set_invariance():
    g = make_group([3, 3])
    s = [g.element([1, 0]).index, g.element([2, 0]).index]
    canon = canonicalize_connection_set(g, s)
    for p in automorphisms(g)[:10]:
        assert canonicalize_connection_set(g, [int(p[i]) for i in s]) == canon


# -- memoised tables ------------------------------------------------------------


def test_equal_groups_share_one_copy_of_each_table():
    a, b = make_group([3, 3, 3]), make_group([3, 3, 3])
    assert a is not b
    assert automorphisms(a) is automorphisms(b)
    assert a.sub_table() is b.sub_table()
    assert character_table(a) is character_table(b)
    assert all_subgroups(a) is all_subgroups(b)


def test_one_classification_builds_the_automorphism_table_once():
    automorphisms.cache_clear()
    groups._lex_keys.cache_clear()
    classify_group(make_group([3, 3, 3]))
    assert automorphisms.cache_info().misses == 1


def test_shared_tables_are_read_only():
    g = make_group([4, 2])
    tables = [
        g.coords_matrix(),
        g.add_table(),
        g.neg_table(),
        g.sub_table(),
        automorphisms(g),
        groups._lex_keys(g),
        character_table(g),
    ]
    for tab in tables:
        with pytest.raises(ValueError):
            tab.flat[0] = tab.flat[0]


def test_subgroup_value_semantics():
    g = make_group([6, 3])
    x, y = g.element([2, 0]), g.element([0, 1])
    h = generated_subgroup(g, [x, y])
    twin = Subgroup(g, h.indices)
    assert twin == h and hash(twin) == hash(h)
    assert h.indices == tuple(e.index for e in h.elements) == tuple(sorted(h.indices))
    assert h.element_set() == frozenset(h.elements) == twin.element_set()
    assert h.element_set() is h.element_set()
    assert y in h and g.element([1, 0]) not in h
    assert h.order == 9


def test_subgroups_with_equal_elements_are_equal():
    g = make_group([6, 3])
    a = generated_subgroup(g, [g.element([2, 0]), g.element([0, 1])])
    b = generated_subgroup(g, [g.element([4, 0]), g.element([2, 2])])
    c = generated_subgroup(g, reversed(a.elements))
    assert a == b == c and hash(a) == hash(b) == hash(c)
    assert len({a, b, c}) == 1
    assert a != generated_subgroup(g, [g.element([2, 0])])
    assert a != Subgroup(make_group([18]), a.indices)


# -- property-based checks -------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(0, len(POOL) - 1), st.data())
def test_group_axioms(gi, data):
    g = POOL[gi]
    i = data.draw(st.integers(0, g.order - 1))
    j = data.draw(st.integers(0, g.order - 1))
    k = data.draw(st.integers(0, g.order - 1))
    a, b, c = g.from_index(i), g.from_index(j), g.from_index(k)
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a + g.zero == a
    assert a + neg(a) == g.zero
    assert element_order(a) >= 1 and scale(element_order(a), a) == g.zero


@settings(max_examples=30, deadline=None)
@given(st.integers(0, len(POOL) - 1), st.data())
def test_quotient_is_homomorphism(gi, data):
    g = POOL[gi]
    subs = all_subgroups(g)
    h = subs[data.draw(st.integers(0, len(subs) - 1))]
    q, proj = quotient_group(g, h)
    assert q.order * h.order == g.order
    i = data.draw(st.integers(0, g.order - 1))
    j = data.draw(st.integers(0, g.order - 1))
    a, b = g.from_index(i), g.from_index(j)
    assert proj(a + b) == proj(a) + proj(b)
    assert (proj(a) == q.zero) == (a in h)


def _bfs_closure(group, gens):
    """Reference: breadth-first closure of {0} under adding generators."""
    seen = {group.zero}
    frontier = [group.zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x + g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen, key=lambda e: e.coords))


UP_TO_64 = [(n,) for n in (1, 2, 7, 12, 30, 32, 49, 64)] + [
    (2, 2), (6, 2), (4, 4), (3, 3, 3), (8, 8), (2, 2, 2, 2, 2, 2), (4, 2, 2, 2), (7, 7), (9, 3), (15, 3), (6, 6),
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_generated_subgroup_matches_bfs_closure(data):
    group = make_group(data.draw(st.sampled_from(UP_TO_64)))
    idx = data.draw(st.lists(st.integers(0, group.order - 1), max_size=6))
    gens = [group.from_index(i) for i in idx]
    sub = generated_subgroup(group, gens)
    assert sub.elements == _bfs_closure(group, gens)


def reference_all_subgroups(group):
    """The lattice closed over sets of elements, one Python sum per pair."""
    cyclic = {generated_subgroup(group, [g]).element_set() for g in group.elements()}
    known = {frozenset([group.zero])}
    frontier = list(known)
    while frontier:
        new_frontier = []
        for hset in frontier:
            for cset in cyclic:
                if cset <= hset:
                    continue
                joined = frozenset(a + b for a in hset for b in cset)
                if joined not in known:
                    known.add(joined)
                    new_frontier.append(joined)
        frontier = new_frontier
    subs = [tuple(sorted(hset, key=lambda e: e.coords)) for hset in known]
    subs.sort(key=lambda h: (len(h), tuple(e.coords for e in h)))
    return subs


@pytest.mark.parametrize(
    "moduli", [(), (1,), (12,), (30,), (32,), (2, 2), (4, 2), (6, 3), (2, 2, 2), (4, 4), (9, 3), (2, 2, 2, 2), (3, 3, 3)]
)
def test_all_subgroups_match_the_element_lattice(moduli):
    group = make_group(moduli)
    got = [h.elements for h in all_subgroups(group)]
    assert got == reference_all_subgroups(group)


GOLDEN_MODULI = [
    tuple(int(m) for m in key.split(","))
    for key in json.loads((Path(__file__).parent / "golden" / "classify_digests.json").read_text())
]


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(UP_TO_64 + GOLDEN_MODULI))
def test_maximal_subgroups_are_the_prime_index_lattice_members(moduli):
    group = make_group(moduli)
    want = {h.indices for h in all_subgroups(group) if is_prime(group.order // h.order)}
    got = [h.indices for h in maximal_subgroups(group)]
    assert len(got) == len(set(got)) and set(got) == want


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(1, 16), max_size=4).filter(lambda m: np.prod(m) <= MAX_ORDER))
def test_index_0_is_the_identity(moduli):
    group = make_group(moduli)
    assert group.elements()[0].is_zero
    assert group.index(group.zero) == 0


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(UP_TO_64 + GOLDEN_MODULI + [(127,), (128,), (2,) * 6 + (3,), (65, 2)]))
def test_orbit_bits_refusal_is_the_int64_id_bound(moduli):
    group = make_group(moduli)
    if len(classify.inverse_pair_basis(group)) > 63:
        with pytest.raises(SpecError, match="subset ids are int64"):
            check_orbit_bits(group)
    else:
        check_orbit_bits(group)


@pytest.mark.parametrize("moduli", [(3, 3, 3), (2, 2, 2, 2)])
def test_classification_builds_no_subgroup_lattice(moduli):
    all_subgroups.cache_clear()
    classify._tables.cache_clear()
    classify_group(make_group(moduli))
    assert all_subgroups.cache_info().hits + all_subgroups.cache_info().misses == 0


def test_shorthands_and_line_union_labels_build_no_subgroup_lattice():
    all_subgroups.cache_clear()
    parse_connection(make_group([10, 5]), "crown:a=5,0")
    parse_connection(make_group([5, 5]), "tdlg:r=3")
    group = make_group([5, 5])
    lines = maximal_subgroups(group)[:2]
    union = [group.from_index(i) for h in lines for i in h.indices if i]
    assert str(detect_family(CayleyGraph(group, union))) == "union-of-order-p-subgroups(p=5,r=2)"
    assert all_subgroups.cache_info().hits + all_subgroups.cache_info().misses == 0


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_order_p_subgroups_are_the_lattice_lines_in_order(p):
    lines = order_p_subgroups(p)
    assert lines == tuple(h for h in all_subgroups(make_group([p, p])) if h.order == p)
    assert len(lines) == p + 1


@pytest.mark.parametrize("p", [2, 4])
def test_order_p_subgroups_refuses_all_but_odd_primes(p):
    with pytest.raises(SpecError, match="order must be an odd prime"):
        order_p_subgroups(p)
