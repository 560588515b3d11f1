import itertools as it
import json
import random
from itertools import combinations

import numpy as np
import pytest

from drgcayley import designs
from drgcayley.algebra import character_table
from drgcayley.designs import (
    direction_bound_check,
    directions,
    is_polynomial_addition_set,
    is_relative_difference_set,
)
from drgcayley.errors import SpecError
from drgcayley.graphs import CayleyGraph
from drgcayley.groups import all_subgroups, generated_subgroup, make_group

from reference import (
    AlgebraElement,
    CyclotomicInteger,
    _character_value_branches,
    _power_identity_residuals,
    _sqrt_in_cyclotomic,
    _squarefree_part,
    fourier_coefficient,
    level_set_certificate,
    ma_decompose,
    monomial_pas_search,
    neg,
    rds_order_constraint,
    scale,
    zeta,
)


def els(group, coords):
    return [group.element(c) for c in coords]


def generated(group, coords):
    return generated_subgroup(group, els(group, coords))


# ---------------------------------------------------------------------------
# relative difference sets


def test_rds_z4_positive():
    g = make_group([4])
    chk = is_relative_difference_set(g, els(g, [[0], [1]]), generated(g, [[2]]))
    assert chk.ok
    assert chk.params == (2, 2, 2, 1)


def test_rds_z9_refusal_names_first_break():
    g = make_group([9])
    chk = is_relative_difference_set(g, els(g, [[0], [1], [2]]), generated(g, [[3]]))
    assert not chk.ok
    assert chk.witness == g.element([1])
    assert chk.expected == 1
    assert chk.actual == 2


def test_rds_z2z4_positive():
    g = make_group([2, 4])
    d = els(g, [(0, 0), (0, 1), (1, 0), (1, 3)])
    chk = is_relative_difference_set(g, d, generated(g, [(0, 2)]))
    assert chk.ok
    assert chk.params == (4, 2, 4, 2)
    assert json.dumps(chk.to_dict())


def test_rds_forbidden_must_be_proper():
    g = make_group([4])
    with pytest.raises(SpecError):
        is_relative_difference_set(g, els(g, [[1]]), generated(g, [[1]]))


def test_rds_forbidden_must_be_subgroup():
    g = make_group([9])
    with pytest.raises(SpecError, match="different group"):
        is_relative_difference_set(g, els(g, [[1]]), generated(make_group([3]), [[1]]))


def _difference_counts(dset):
    counts = {}
    for a in dset:
        for b in dset:
            diff = a + neg(b)
            counts[diff] = counts.get(diff, 0) + 1
    return counts


@pytest.mark.parametrize("moduli", [(4,), (9,), (2, 4), (3, 3), (16,), (12,),
                                    (5, 5), (2, 2, 2), (49,), (10, 10)])
def test_rds_matches_difference_count_oracle(moduli):
    g = make_group(list(moduli))
    rng = random.Random(hash(moduli) & 0xFFFF)
    subs = [s for s in all_subgroups(g) if s.order < g.order]
    everything = list(g.elements())
    for _ in range(12):
        sub = rng.choice(subs)
        k = rng.randrange(1, min(7, g.order))
        dset = frozenset(rng.sample(everything, k))
        chk = is_relative_difference_set(g, dset, sub)
        counts = _difference_counts(dset)
        nset = sub.element_set()
        outside = [x for x in everything if x not in nset]
        mu_vals = {counts.get(x, 0) for x in outside}
        ok = (all(counts.get(x, 0) == 0 for x in nset if not x.is_zero)
              and len(mu_vals) == 1)
        assert chk.ok == ok
        if ok:
            mu = mu_vals.pop()
            assert chk.params == (g.order // sub.order, sub.order, k, mu)
        else:
            want_mu = None
            kk = k * (k - 1)
            if kk % len(outside) == 0:
                want_mu = kk // len(outside)
            for x in everything:
                expect = k if x.is_zero else (0 if x in nset else want_mu)
                if counts.get(x, 0) != expect:
                    assert chk.witness == x
                    assert chk.expected == expect
                    assert chk.actual == counts.get(x, 0)
                    break


# ---------------------------------------------------------------------------
# order constraint


def test_order_constraint_z4_exception():
    g = make_group([4])
    assert rds_order_constraint(g, els(g, [[0], [1]]), generated(g, [[2]])) is True


def test_order_constraint_exponent_divides():
    g = make_group([2, 4])
    d = els(g, [(0, 0), (0, 1), (1, 0), (1, 3)])
    assert rds_order_constraint(g, d, generated(g, [(0, 2)])) is True


def test_order_constraint_rejects_non_rds():
    # difference counts outside the subgroup are 2 and 0, not constant
    g = make_group([2, 2])
    with pytest.raises(SpecError):
        rds_order_constraint(g, els(g, [(0, 0), (1, 0)]), generated(g, [(0, 1)]))


def test_order_constraint_rejects_wrong_shape():
    g = make_group([4])
    with pytest.raises(SpecError):
        rds_order_constraint(g, els(g, [[0]]), generated(g, [[2]]))


# ---------------------------------------------------------------------------
# polynomial addition sets


def test_pas_subgroup_quadratic():
    g = make_group([9])
    chk = is_polynomial_addition_set(g, els(g, [[0], [3], [6]]), [0, -3, 1])
    assert chk.ok and chk.m == 0


def test_pas_identity_polynomial_on_group():
    g = make_group([4])
    chk = is_polynomial_addition_set(g, list(g.elements()), [0, 1])
    assert chk.ok and chk.m == 1


def test_pas_refusal_square_on_z5():
    g = make_group([5])
    chk = is_polynomial_addition_set(g, els(g, [[1], [4]]), [0, 0, 1])
    assert not chk.ok
    assert chk.witness == g.element([1])
    assert chk.residual == -2
    assert json.dumps(chk.to_dict())


def test_pas_degree_guard():
    g = make_group([5])
    for poly in ([], [3], [1, 0, 0]):
        with pytest.raises(SpecError):
            is_polynomial_addition_set(g, els(g, [[1]]), poly)


@pytest.mark.parametrize("moduli, dset, poly, work", [
    ([7], [[1], [2], [4]], [0, 0, 1], 2 * 49),  # values below 2^62: one word
    ([2], [[0], [1]], [0] * 64 + [1], 64 * 4 * 2),  # 2^64 has 65 bits: two words
])
def test_pas_work_bound_is_exact(monkeypatch, moduli, dset, poly, work):
    g = make_group(moduli)
    monkeypatch.setattr(designs, "MAX_PAS_WORK", work)
    assert is_polynomial_addition_set(g, els(g, dset), poly) is not None
    monkeypatch.setattr(designs, "MAX_PAS_WORK", work - 1)
    with pytest.raises(SpecError, match="units of work"):
        is_polynomial_addition_set(g, els(g, dset), poly)


def test_pas_punctured_group_powers():
    # (G - e)^n = (-1)^n e + ((v-1)^n - (-1)^n)/v * G
    g7 = make_group([7])
    punct = [x for x in g7.elements() if not x.is_zero]
    chk = is_polynomial_addition_set(g7, punct, [-1, 0, 1])
    assert chk.ok and chk.m == 5
    g5 = make_group([5])
    punct5 = [x for x in g5.elements() if not x.is_zero]
    chk3 = is_polynomial_addition_set(g5, punct5, [1, 0, 0, 1])
    assert chk3.ok and chk3.m == 13


# ---------------------------------------------------------------------------
# monomial search


def test_search_stated_examples_empty():
    assert monomial_pas_search(7, 2, 20) == []
    assert monomial_pas_search(9, 3, 30) == []
    assert monomial_pas_search(5, 1, 50) == []


def _brute_monomial(v, n, bound):
    hits = []
    for k in range(2, v - 1):
        for idx in combinations(range(v), k):
            acc = [0] * v
            for i in idx:
                acc[i] += 1
            base = list(acc)
            for _ in range(n - 1):
                new = [0] * v
                for i, a in enumerate(acc):
                    if a:
                        for j, c in enumerate(base):
                            if c:
                                new[(i + j) % v] += a * c
                acc = new
            off = acc[1:]
            if min(off) == max(off) and abs(acc[0] - off[0]) <= bound:
                hits.append((idx, acc[0] - off[0]))
    return hits


@pytest.mark.parametrize("v", range(4, 14))
@pytest.mark.parametrize("n", [2, 3])
def test_search_matches_bruteforce(v, n):
    assert _brute_monomial(v, n, 30) == []
    assert monomial_pas_search(v, n, 30) == []


def test_search_refuses_the_one_size_its_filters_pass():
    # (40, 13, 4, 81) and (40, 27, 4, 81) are the only cases past the
    # filters anywhere in the domain; C(40, 13) exceeds the enumeration cap
    assert monomial_pas_search(40, 4, 80) == []
    with pytest.raises(SpecError):
        monomial_pas_search(40, 4, 81)


def test_search_domain_guards():
    with pytest.raises(SpecError):
        monomial_pas_search(41, 2, 10)
    with pytest.raises(SpecError):
        monomial_pas_search(10, 0, 10)
    with pytest.raises(SpecError):
        monomial_pas_search(10, 6, 10)
    with pytest.raises(SpecError):
        monomial_pas_search(10, 2, -1)
    with pytest.raises(SpecError):
        monomial_pas_search(make_group([3, 3]), 2, 10)


def test_search_accepts_cyclic_group_object():
    assert monomial_pas_search(make_group([11]), 2, 30) == []


def test_squarefree_part():
    assert _squarefree_part(12) == 3
    assert _squarefree_part(9) == 1
    assert _squarefree_part(-4) == -1
    assert _squarefree_part(18) == 2
    assert _squarefree_part(1) == 1
    assert _squarefree_part(-27) == -3


def test_quadratic_subfield_membership():
    assert _sqrt_in_cyclotomic(-1, 4)
    assert not _sqrt_in_cyclotomic(-1, 6)
    assert _sqrt_in_cyclotomic(2, 8)
    assert not _sqrt_in_cyclotomic(2, 7)
    assert _sqrt_in_cyclotomic(-3, 3)
    assert _sqrt_in_cyclotomic(3, 12)
    assert not _sqrt_in_cyclotomic(3, 9)
    assert _sqrt_in_cyclotomic(5, 5)
    assert not _sqrt_in_cyclotomic(5, 7)
    assert _sqrt_in_cyclotomic(-2, 8)


def test_character_branch_probes():
    # sqrt(2) is not in Q(zeta_7), and the twisted branch needs b = -2
    assert _character_value_branches(7, 2, 2, 2) == ()
    # sqrt(5) lives in Q(zeta_5): one irrational branch survives
    assert _character_value_branches(5, 5, 2, 5) == (None,)


# ---------------------------------------------------------------------------
# coset decomposition


def test_ma_decompose_examples_z9():
    g = make_group([9])
    e0 = AlgebraElement(g, np.array([3, 0, 0, 0, 0, 0, 0, 0, 0]))
    x1, x2 = ma_decompose(g, e0, 3)
    assert x1 == AlgebraElement.unit(g)
    assert list(x2.coeffs) == [0] * 9

    psum = AlgebraElement.from_set(g, els(g, [[0], [3], [6]]))
    x1, x2 = ma_decompose(g, psum, 3)
    assert list(x1.coeffs) == [0] * 9
    assert x2 == AlgebraElement.unit(g)

    mixed = e0 + psum
    x1, x2 = ma_decompose(g, mixed, 3)
    assert x1 == AlgebraElement.unit(g)
    assert x2 == AlgebraElement.unit(g)


def test_ma_decompose_precondition_unmet():
    g = make_group([9])
    with pytest.raises(SpecError):
        ma_decompose(g, AlgebraElement.unit(g), 3)


def test_ma_decompose_guards():
    g9 = make_group([9])
    g33 = make_group([3, 3])
    with pytest.raises(SpecError):
        ma_decompose(g33, AlgebraElement.unit(g33), 3)
    with pytest.raises(SpecError):
        ma_decompose(g9, AlgebraElement.unit(g9), 2)
    with pytest.raises(SpecError):
        ma_decompose(g9, AlgebraElement.unit(g9), 4)
    with pytest.raises(SpecError):
        ma_decompose(g9, AlgebraElement.unit(g9), 3, 0)


def test_ma_decompose_higher_power():
    g = make_group([27])
    vec = np.zeros(27, dtype=np.int64)
    vec[0] = 9
    x1, x2 = ma_decompose(g, AlgebraElement(g, vec), 3, 2)
    assert int(x1.coeffs[0]) == 1 and int(x1.coeffs.sum()) == 1
    assert list(x2.coeffs) == [0] * 27


@pytest.mark.parametrize("moduli,p,a", [((9,), 3, 1), ((27,), 3, 1),
                                        ((27,), 3, 2), ((2, 9), 3, 1),
                                        ((8,), 2, 2)])
def test_ma_decompose_random_recombination(moduli, p, a):
    g = make_group(list(moduli))
    rng = random.Random(p * 100 + a)
    i0 = [i for i, m in enumerate(moduli) if m % p == 0][0]
    coords = [0] * len(moduli)
    coords[i0] = moduli[i0] // p
    pset = [scale(k, g.element(coords)) for k in range(p)]
    psum = AlgebraElement.from_set(g, pset)
    for _ in range(8):
        x1 = AlgebraElement(g, np.array([rng.randrange(4) for _ in range(g.order)]))
        x2 = AlgebraElement(g, np.array([rng.randrange(p ** a) for _ in range(g.order)]))
        y = (p ** a) * x1 + psum * x2
        r1, r2 = ma_decompose(g, y, p, a)
        assert (p ** a) * r1 + psum * r2 == y
        assert all(0 <= int(c) < p ** a for c in r2.coeffs)
        assert all(int(c) >= 0 for c in r1.coeffs)


# ---------------------------------------------------------------------------
# direction sets


def test_directions_diagonal_collinear():
    ds = directions(3, [(0, 0), (1, 1), (2, 2)])
    assert ds.labels() == ("1",)
    assert not ds.has_infinity
    assert direction_bound_check(3, [(0, 0), (1, 1), (2, 2)]) == "collinear"


def test_directions_triangle():
    ds = directions(3, [(0, 0), (1, 0), (0, 1)])
    assert set(ds.labels()) == {"0", "2", "inf"}
    assert direction_bound_check(3, [(0, 0), (1, 0), (0, 1)]) == "bound-holds"


def test_directions_vertical_line():
    ds = directions(5, [(2, 0), (2, 1), (2, 4)])
    assert ds.labels() == ("inf",)
    assert ds.has_infinity
    assert direction_bound_check(5, [(2, 0), (2, 1), (2, 4)]) == "collinear"


def test_directions_parabola_spans_all_slopes():
    pts = [(x, (x * x) % 5) for x in range(5)]
    ds = directions(5, pts)
    assert len(ds) == 5
    assert not ds.has_infinity
    assert direction_bound_check(5, pts) == "bound-holds"
    assert json.dumps(ds.to_dict())


def test_directions_accepts_group_elements():
    g = make_group([3, 3])
    ds = directions(3, els(g, [(0, 0), (1, 0), (0, 1)]))
    assert set(ds.labels()) == {"0", "2", "inf"}


def test_directions_guards():
    with pytest.raises(SpecError):
        directions(4, [(0, 0), (1, 1)])
    with pytest.raises(SpecError):
        directions(3, [(0, 0)])
    with pytest.raises(SpecError):
        directions(3, [(0, 0), (1, 0), (2, 0), (0, 1)])
    with pytest.raises(SpecError):
        directions(3, [(0, 0), (0, 0)])  # one point after reduction


def test_direction_bound_exhaustive_p3():
    plane = list(it.product(range(3), repeat=2))
    collinear = 0
    for size in (2, 3):
        for pts in combinations(plane, size):
            verdict = direction_bound_check(3, pts)
            assert verdict != "VIOLATION"
            if verdict == "collinear":
                collinear += 1
    # every pair, plus one triple per each of the 12 affine lines
    assert collinear == 36 + 12


def test_direction_bound_random_p7():
    rng = random.Random(7)
    plane = list(it.product(range(7), repeat=2))
    for _ in range(300):
        size = rng.randrange(2, 7)
        pts = rng.sample(plane, size)
        assert direction_bound_check(7, pts) != "VIOLATION"


# ---------------------------------------------------------------------------
# level-set certificates


def taylor_cover():
    g = make_group([2, 2, 2, 2, 2])
    s = []
    for x in it.product([0, 1], repeat=4):
        if any(x):
            s.append(g.element(list(x) + [(x[0] * x[1] + x[2] * x[3]) % 2]))
    return CayleyGraph(g, s)


def test_certificate_taylor_cover():
    out = level_set_certificate(taylor_cover(), 1)
    assert out.ok and out.status == "certificate"
    cert = out.certificate
    assert cert.psi_index == 1
    assert cert.theta == 3
    assert len(cert.level_set) == 10
    assert all(x == CyclotomicInteger.from_int(0) for x in cert.residual)
    assert json.dumps(out.to_dict())


def test_certificate_taylor_level_set_values():
    # the level set collects exactly the characters hitting theta_1
    gr = taylor_cover()
    out = level_set_certificate(gr, 1)
    base = make_group([2, 2, 2, 2])
    sind = gr.indicator()
    level = set(out.certificate.level_set)
    for g in base.elements():
        full = gr.group.element(tuple(g.coords) + (1,))
        val = fourier_coefficient(gr.group, sind, full)
        assert (val == CyclotomicInteger.from_int(3)) == (g in level)


def test_certificate_q4_needs_odd_fiber():
    g = make_group([2, 2, 2, 2])
    conn = els(g, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, 1, 1, 1)])
    out = level_set_certificate(CayleyGraph(g, conn), 1)
    assert out.status == "precondition-unmet"
    assert "odd prime" in out.reason


def test_certificate_rejects_wrong_shapes():
    g33 = make_group([3, 3])
    k33 = CayleyGraph(g33, els(g33, [(1, 0), (2, 0), (1, 1), (2, 2), (1, 2), (2, 1)]))
    assert "diameter 2" in level_set_certificate(k33, 1).reason

    g32 = make_group([3, 2])
    c6 = CayleyGraph(g32, els(g32, [(1, 1), (2, 1)]))
    assert "non-bipartite" in level_set_certificate(c6, 1).reason

    g63 = make_group([6, 3])
    half = [g63.element((a, b)) for a in (0, 2, 4) for b in range(3)]
    crown = CayleyGraph(g63, [h + g63.element((3, 0)) for h in half])
    assert "not the fiber" in level_set_certificate(crown, 1).reason

    g8 = make_group([8])
    c8 = CayleyGraph(g8, els(g8, [[1], [7]]))
    assert "fiber coordinate" in level_set_certificate(c8, 1).reason

    g9 = make_group([3, 3, 9])
    assert "not prime" in level_set_certificate(
        CayleyGraph(g9, els(g9, [(0, 0, 1), (0, 0, 8)])), 1).reason


def test_certificate_disconnected_graph():
    g = make_group([3, 3])
    out = level_set_certificate(CayleyGraph(g, els(g, [(0, 1), (0, 2)])), 1)
    assert out.status == "precondition-unmet"
    assert "connected" in out.reason


def test_certificate_psi_guards():
    gr = taylor_cover()
    with pytest.raises(SpecError):
        level_set_certificate(gr, 0)
    with pytest.raises(SpecError):
        level_set_certificate(gr, 2)


def test_power_identity_synthetic():
    # over Z_3 with B = {0}: B^3 = e, and 2delta = 3, theta3 = -1 satisfy
    # 27 e = 9 ((1)^3 - 1) G + 27 e exactly
    base = make_group([3])
    two_delta = CyclotomicInteger.from_int(3)
    good = _power_identity_residuals(base, [base.zero], two_delta,
                                     CyclotomicInteger.from_int(-1), 3)
    assert all(x == CyclotomicInteger.from_int(0) for x in good)
    bad = _power_identity_residuals(base, [base.zero], two_delta,
                                    CyclotomicInteger.from_int(-2), 3)
    assert any(x != CyclotomicInteger.from_int(0) for x in bad)


def _random_inverse_closed(group, rng):
    pool = [g for g in group.elements() if not g.is_zero]
    chosen = set()
    for g in pool:
        if g in chosen or neg(g) in chosen:
            continue
        if rng.random() < 0.5:
            chosen.add(g)
            chosen.add(neg(g))
    return chosen


def test_twisted_character_sum_decomposes_by_layer():
    # chi_(g,psi)(S) equals sum_i psi(i) chi_g(R_i) for the fiber layers R_i
    group = make_group([5, 3])
    base = make_group([5])
    rng = random.Random(53)
    for _ in range(10):
        s = _random_inverse_closed(group, rng)
        sind = np.zeros(group.order, dtype=np.int64)
        for x in s:
            sind[group.index(x)] = 1
        layers = [set() for _ in range(3)]
        for x in s:
            layers[x.coords[1]].add(base.element(x.coords[:1]))
        for psi in (1, 2):
            for g in base.elements():
                full = group.element((g.coords[0], psi))
                lhs = fourier_coefficient(group, sind, full)
                rhs = CyclotomicInteger.from_int(0)
                for i in range(3):
                    lay = np.zeros(5, dtype=np.int64)
                    for x in layers[i]:
                        lay[base.index(x)] = 1
                    rhs = rhs + zeta(3, (psi * i) % 3) * fourier_coefficient(base, lay, g)
                assert lhs == rhs


def test_layer_fourier_inversion_identity():
    # sum_g (sum_i psi(i) chi_g(R_i)) chi_g(l) = |M| sum_i psi(i) [-l in R_i]
    base = make_group([5])
    rng = random.Random(35)
    for _ in range(10):
        layers = [set(rng.sample(list(base.elements()), rng.randrange(0, 6)))
                  for _ in range(3)]
        inds = []
        for lay in layers:
            v = np.zeros(5, dtype=np.int64)
            for x in lay:
                v[base.index(x)] = 1
            inds.append(v)
        psi = 1
        for l in base.elements():
            lhs = CyclotomicInteger.from_int(0)
            for g in base.elements():
                val = CyclotomicInteger.from_int(0)
                for i in range(3):
                    val = val + zeta(3, (psi * i) % 3) * fourier_coefficient(base, inds[i], g)
                lhs = lhs + val * CyclotomicInteger.from_root_power(
                    5, int(character_table(base)[g.index, l.index]))
            rhs = CyclotomicInteger.from_int(0)
            for i in range(3):
                if neg(l) in layers[i]:
                    rhs = rhs + zeta(3, (psi * i) % 3)
            assert lhs == 5 * rhs
