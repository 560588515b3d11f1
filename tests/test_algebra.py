import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgcayley.algebra import character_table, character_values
from drgcayley.cyclotomic import euler_phi
from drgcayley.errors import SpecError
from drgcayley.groups import make_group

from reference import (
    AlgebraElement,
    CyclotomicInteger,
    fourier_coefficient,
    fourier_inverse,
    fourier_transform,
    zeta,
)


def test_convolution_hand_values():
    g = make_group([4])
    a = AlgebraElement.from_set(g, [g.element([0]), g.element([1])])
    prod = a * a
    # (0+1)^2 = {0,1,1,2} -> coeffs 1,2,1,0
    assert list(prod.coeffs) == [1, 2, 1, 0]


def test_subgroup_indicator_is_idempotent_up_to_order():
    g = make_group([9])
    p = AlgebraElement.from_set(g, [g.element([0]), g.element([3]), g.element([6])])
    assert (p * p) == 3 * p


def test_unit_is_identity():
    g = make_group([6, 3])
    e = AlgebraElement.unit(g)
    rng = np.random.default_rng(3)
    a = AlgebraElement(g, rng.integers(-5, 6, g.order))
    assert e * a == a


def test_ring_laws():
    g = make_group([4, 2])
    rng = np.random.default_rng(5)
    a = AlgebraElement(g, rng.integers(-4, 5, g.order))
    b = AlgebraElement(g, rng.integers(-4, 5, g.order))
    c = AlgebraElement(g, rng.integers(-4, 5, g.order))
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def test_reversed_involution():
    g = make_group([5])
    a = AlgebraElement.from_set(g, [g.element([1]), g.element([2])])
    assert a.reversed().support() == (g.element([3]), g.element([4]))
    assert a.reversed().reversed() == a


def test_from_set_rejects_duplicates():
    g = make_group([5])
    with pytest.raises(SpecError):
        AlgebraElement.from_set(g, [1, 1])


def test_character_value():
    g = make_group([6])
    table = character_table(g)
    assert zeta(6, int(table[g.index(g.element([1])), g.index(g.element([1]))])) == zeta(6, 1)
    assert zeta(6, int(table[g.index(g.element([2])), g.index(g.element([3]))])) == 1


def test_fourier_coefficient_subgroup():
    # hat(H)(chi) = |H| when chi kills H, else 0
    g = make_group([9])
    vec = np.zeros(9, dtype=np.int64)
    vec[[0, 3, 6]] = 1
    assert fourier_coefficient(g, vec, g.element([3])).as_int() == 3
    assert fourier_coefficient(g, vec, g.element([1])) == 0


def test_fourier_is_algebra_homomorphism():
    g = make_group([6, 3])
    rng = np.random.default_rng(9)
    a = AlgebraElement(g, rng.integers(-3, 4, g.order))
    b = AlgebraElement(g, rng.integers(-3, 4, g.order))
    for ge in list(g)[:6]:
        left = fourier_coefficient(g, (a * b).coeffs, ge)
        right = fourier_coefficient(g, a.coeffs, ge) * fourier_coefficient(g, b.coeffs, ge)
        assert left == right


def test_fourier_roundtrip_small():
    g = make_group([5])
    vec = np.array([1, -2, 0, 3, 1], dtype=np.int64)
    assert np.array_equal(fourier_inverse(g, fourier_transform(g, vec)), vec)


def test_fourier_roundtrip_mixed_group():
    g = make_group([6, 3])
    rng = np.random.default_rng(21)
    for _ in range(25):
        vec = rng.integers(-1, 2, g.order)
        assert np.array_equal(fourier_inverse(g, fourier_transform(g, vec)), vec)


def test_fourier_inverse_rejects_bad_values():
    g = make_group([3])
    with pytest.raises(SpecError):
        fourier_inverse(g, (CyclotomicInteger.from_int(1), CyclotomicInteger.from_int(1), CyclotomicInteger.from_int(0)))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_fourier_roundtrip_property(data):
    mods = data.draw(st.sampled_from([[7], [4, 2], [3, 3], [12], [2, 2, 2]]))
    g = make_group(mods)
    vec = np.array(data.draw(st.lists(st.integers(-1, 1), min_size=g.order, max_size=g.order)), dtype=np.int64)
    assert np.array_equal(fourier_inverse(g, fourier_transform(g, vec)), vec)


def test_batched_roundtrip_matches_scalar_path():
    # character_values evaluates every character on a batch of sets at
    # once; each entry must equal the per-character coefficient, and the
    # coefficients must invert back to the set
    rng = np.random.default_rng(7)
    for mods in ([6], [2, 4], [3, 3], [12], [2, 2, 3]):
        g = make_group(mods)
        batch = rng.integers(0, 2, size=(4, g.order))
        vals = character_values(g, [np.flatnonzero(row) for row in batch])
        for r, row in enumerate(batch):
            for gi, ge in enumerate(g.elements()):
                assert CyclotomicInteger(g.exponent, vals[gi, r].tolist()) == fourier_coefficient(g, row, ge)
            assert np.array_equal(fourier_inverse(g, fourier_transform(g, row)), row)


def test_batched_roundtrip_single_row_and_shape_guard():
    g = make_group([5])
    vec = np.array([1, 0, 0, 1, 1])
    vals = character_values(g, [np.flatnonzero(vec)])
    assert vals.shape == (5, 1, euler_phi(5))
    values = [CyclotomicInteger(5, vals[gi, 0].tolist()) for gi in range(5)]
    assert np.array_equal(fourier_inverse(g, values), vec)
    empty = character_values(g, [[]])
    assert empty.shape == (5, 1, euler_phi(5)) and not empty.any()
    assert character_values(g, []).shape == (5, 0, euler_phi(5))
