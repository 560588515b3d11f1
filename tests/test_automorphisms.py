"""Independent oracles for the vectorised Aut(G) table, canonical form and
class pass.

Each oracle here is written without the code it checks: a closed form for
|Aut(G)|, a plain loop over generator images, a plain lex-min loop and a
plain set of images.
"""

import itertools as it
import time
from math import prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgcayley.errors import SpecError
from drgcayley.groups import (
    aut_candidate_count,
    aut_classes,
    automorphisms,
    canonicalize_connection_set,
    make_group,
)

from reference import scale


def _prime_power_parts(moduli):
    """{p: sorted exponents e with Z_{p^e} a factor of the primary decomposition}."""
    parts = {}
    for m in moduli:
        p = 2
        while m > 1:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                parts.setdefault(p, []).append(e)
            p += 1
    return {p: sorted(es) for p, es in parts.items()}


def hillar_rhea_aut_order(moduli):
    """|Aut(G)| from Hillar & Rhea, Amer. Math. Monthly 114 (2007), Thm 4.1:
    for G_p = Z_{p^e_1} + ... + Z_{p^e_n} with e_1 <= ... <= e_n,
    |Aut(G_p)| = prod_k (p^d_k - p^(k-1)) prod_j (p^e_j)^(n-d_j)
    prod_i (p^(e_i-1))^(n-c_i+1), d_k = max{l : e_l = e_k},
    c_k = min{l : e_l = e_k}; Aut(G) is the product over primes."""
    total = 1
    for p, e in _prime_power_parts(moduli).items():
        n = len(e)
        d = [max(l for l in range(1, n + 1) if e[l - 1] == e[k]) for k in range(n)]
        c = [min(l for l in range(1, n + 1) if e[l - 1] == e[k]) for k in range(n)]
        total *= prod(p ** d[k] - p**k for k in range(n))
        total *= prod((p ** e[j]) ** (n - d[j]) for j in range(n))
        total *= prod((p ** (e[i] - 1)) ** (n - c[i] + 1) for i in range(n))
    return total


@pytest.mark.parametrize(
    "moduli, order",
    [
        ([2, 2, 2, 2], 20160),
        ([3, 3, 3], 11232),
        ([15, 3], 192),
        ([4, 2], 8),
        ([9, 3], 108),
        ([6], 2),
        ([5, 5], 480),
        ([4, 4], 96),
        ([4, 2, 2], 192),
        ([9, 9], 3888),
        ([8, 4, 2], 2048),
        ([12, 6], 384),
    ],
)
def test_aut_order_matches_hillar_rhea(moduli, order):
    assert hillar_rhea_aut_order(moduli) == order
    assert len(automorphisms(make_group(moduli))) == order


def _plain_automorphisms(group):
    """Every generator-image tuple mapped element by element; the
    bijections, as lists, sorted."""
    elems = group.elements()
    killed = [
        [g for g in elems if all(ni * c % m == 0 for c, m in zip(g.coords, group.moduli))]
        for ni in group.moduli
    ]
    out = []
    for images in it.product(*killed):
        perm = []
        for x in elems:
            y = group.zero
            for xi, im in zip(x.coords, images):
                y = y + scale(xi, im)
            perm.append(y.index)
        if len(set(perm)) == group.order:
            out.append(perm)
    return sorted(out)


# the edge cases: Z_1 factors, moduli out of divisor order, and [3, 15]
@pytest.mark.parametrize(
    "moduli",
    [[6], [4, 2], [3, 3], [2, 2, 2], [6, 3], [9, 3], [8, 4], [1, 4], [3, 1], [3, 9], [2, 6], [3, 15]],
)
def test_automorphism_table_matches_plain_enumeration(moduli):
    g = make_group(moduli)
    perms = automorphisms(g)
    assert perms.dtype == np.int32 and perms.shape == (len(perms), g.order)
    assert not perms.flags.writeable
    assert perms.tolist() == _plain_automorphisms(g)


@pytest.mark.parametrize("moduli", [[3, 3, 3], [9, 9], [8, 4, 2], [2, 2, 2, 2]])
def test_automorphism_table_of_large_groups_is_aut_in_lex_order(moduli):
    """Where the plain loop is too slow: distinct bijective homomorphisms,
    as many as Hillar-Rhea counts, strictly increasing as full rows."""
    g = make_group(moduli)
    perms = automorphisms(g)
    assert len(perms) == hillar_rhea_aut_order(moduli)
    differ = perms[1:] != perms[:-1]
    assert differ.any(axis=1).all()
    first = differ.argmax(axis=1)
    rows = np.arange(len(first))
    assert (perms[1:][rows, first] > perms[:-1][rows, first]).all()
    assert (np.sort(perms, axis=1) == np.arange(g.order)).all()
    add = g.add_table()
    for block in np.array_split(perms, -(-len(perms) // 256)):
        # a[x + y] = a[x] + a[y] for every pair, 256 automorphisms at a time
        assert (block[:, add] == add[block[:, :, None], block[:, None, :]]).all()


def test_candidate_count_closed_form():
    assert aut_candidate_count(make_group([2, 2, 2, 2])) == 65536
    assert aut_candidate_count(make_group([3, 3, 3])) == 19683
    assert aut_candidate_count(make_group([15, 3])) == 15 * 3 * 3 * 3
    assert aut_candidate_count(make_group([2] * 5)) == 2**25


def test_enumeration_guard_fails_fast():
    t0 = time.perf_counter()
    with pytest.raises(SpecError, match="generator images"):
        automorphisms(make_group([2] * 5))
    assert time.perf_counter() - t0 < 1.0


def _plain_canonical(group, indices):
    return min(tuple(sorted(int(p[i]) for i in indices)) for p in automorphisms(group))


def _plain_images(group, indices):
    return {frozenset(int(p[i]) for i in indices) for p in automorphisms(group)}


# Keys are ceil(n / 32) words; the groups sit on both sides of each word
# boundary, and LARGE holds frontier shapes of three or more words.
SMALL = [make_group(m) for m in ([3, 3, 3], [2, 2, 2, 2], [15, 3], [8, 4], [11, 3], [8, 8])]
LARGE = [make_group(m) for m in ([9, 9], [13, 5], [27, 3])]


def _index_sets(groups):
    return st.sampled_from(groups).flatmap(
        lambda g: st.tuples(st.just(g), st.sets(st.integers(0, g.order - 1), max_size=g.order))
    )


@settings(max_examples=40, deadline=None)
@given(_index_sets(SMALL))
def test_canonical_form_matches_plain_lex_min_small(case):
    g, s = case
    assert canonicalize_connection_set(g, s) == _plain_canonical(g, s)


@settings(max_examples=24, deadline=None)
@given(_index_sets(LARGE))
def test_canonical_form_matches_plain_lex_min_large(case):
    g, s = case
    assert canonicalize_connection_set(g, s) == _plain_canonical(g, s)


@settings(max_examples=30, deadline=None)
@given(_index_sets(SMALL + LARGE))
def test_orbit_size_counts_distinct_images(case):
    g, s = case
    images = _plain_images(g, s)
    assert aut_classes(g, [s])[0][2] == len(images)
    assert len(automorphisms(g)) % len(images) == 0


@st.composite
def _families(draw, groups):
    """A group and a family of index sets: random sets of different sizes,
    each with images of it under random automorphism rows, shuffled."""
    g = draw(st.sampled_from(groups))
    perms = automorphisms(g)
    bases = draw(st.lists(st.sets(st.integers(0, g.order - 1), max_size=g.order), min_size=1, max_size=3))
    family = []
    for s in bases:
        family.append(sorted(s))
        for row in draw(st.lists(st.integers(0, len(perms) - 1), max_size=3)):
            family.append(sorted(int(perms[row][i]) for i in s))
    return g, draw(st.permutations(family))


@settings(max_examples=30, deadline=None)
@given(_families(SMALL + LARGE))
def test_aut_classes_partition_a_family_into_orbits(case):
    g, family = case
    classes = aut_classes(g, family)
    positions = [p for _, members, _ in classes for p in members]
    assert sorted(positions) == list(range(len(family)))
    firsts = [members[0] for _, members, _ in classes]
    assert firsts == sorted(firsts)
    assert all(list(members) == sorted(members) for _, members, _ in classes)
    canonical = {}
    for canon, members, size in classes:
        for p in members:
            key = frozenset(family[p])
            if key not in canonical:
                canonical[key] = _plain_canonical(g, family[p])
            assert canonical[key] == canon
        assert size == len(_plain_images(g, canon))
    assert len({canon for canon, _, _ in classes}) == len(classes)


@pytest.mark.parametrize("g", SMALL + [make_group([]), make_group([5])], ids=str)
def test_aut_classes_of_empty_families(g):
    assert aut_classes(g, []) == []
    assert aut_classes(g, [[]]) == [((), (0,), 1)]
    assert aut_classes(g, [(), set()]) == [((), (0, 1), 1)]
