import functools as ft
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgcayley import cyclotomic
from drgcayley.cyclotomic import _power_table, cyclotomic_polynomial, euler_phi, reduce_root_counts
from drgcayley.errors import SpecError
from drgcayley.graphs import spectrum

from reference import CyclotomicInteger, cycle, numeric_direct, reduce_by_full_table, reference_power_table, zeta


def test_euler_phi():
    assert [euler_phi(m) for m in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]
    assert euler_phi(45) == 24


def test_cyclotomic_polynomials_frozen():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomials_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for m in list(range(1, 61)) + [128, 243, 486, 1155, 1944, 2048]:
        ours = cyclotomic_polynomial(m)
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, x), x).all_coeffs()[::-1]
        assert list(ours) == [int(c) for c in theirs], f"Phi_{m} mismatch"


def test_root_power_identities():
    assert zeta(3, 0) == 1
    assert zeta(2, 1) == -1
    assert zeta(6, 1) ** 3 == -1
    assert zeta(5, 1) * zeta(5, 4) == 1
    assert zeta(3, 1) + zeta(3, 2) == -1
    assert 1 + zeta(3, 1) + zeta(3, 2) == 0
    assert (zeta(8, 1) + zeta(8, 7)) ** 2 == 2


def test_gauss_sums():
    # sum of legendre(t) * zeta_p^t squares to +-p
    g3 = zeta(3, 1) - zeta(3, 2)
    assert g3 * g3 == -3
    g5 = zeta(5, 1) + zeta(5, 4) - zeta(5, 2) - zeta(5, 3)
    assert g5 * g5 == 5


def test_mixed_conductor_equality():
    assert zeta(6, 2) == zeta(3, 1)
    assert zeta(12, 4) == zeta(3, 1)
    assert zeta(45, 15) == zeta(3, 1)
    assert zeta(4, 2) == zeta(2, 1)
    assert zeta(10, 5) == -1
    assert zeta(10, 5) == CyclotomicInteger.from_int(-1)
    assert zeta(12, 3) == zeta(4, 1)
    assert zeta(6, 1) != zeta(3, 1)
    # equality lifts to the lcm of the conductors, so values are not hashable
    with pytest.raises(TypeError):
        hash(zeta(3, 1))


def test_rational_integer_detection():
    v = zeta(3, 1) + zeta(3, 2) + 4
    assert v.is_rational_integer
    assert v.as_int() == 3
    with pytest.raises(SpecError):
        zeta(5, 1).as_int()


def test_lift_requires_multiple():
    with pytest.raises(SpecError):
        zeta(3, 1).lift(5)


def test_galois_and_conjugate():
    a = zeta(5, 1) + 2 * zeta(5, 2)
    assert a.galois(2) == zeta(5, 2) + 2 * zeta(5, 4)
    assert a.conjugate() == zeta(5, 4) + 2 * zeta(5, 3)
    assert (a * a.conjugate()).conjugate() == a * a.conjugate()
    with pytest.raises(SpecError):
        zeta(6, 1).galois(2)


def test_numeric_values():
    import mpmath

    v = zeta(5, 1) + zeta(5, 4)  # 2cos(72 degrees)
    with mpmath.workdps(45):
        golden = (mpmath.sqrt(5) - 1) / 2
        assert abs(v.numeric(40) - golden) < 1e-35
        assert abs(zeta(8, 1).numeric(40) - mpmath.mpc(1, 1) / mpmath.sqrt(2)) < 1e-35


@pytest.mark.parametrize("dps", [20, 40, 500])
def test_numeric_from_the_root_table_is_the_direct_evaluation_bit_for_bit(dps):
    # zeta_m^k for every m <= 64 and k < phi(m): first from a cleared
    # table (misses), then from the filled one (hits), then again after
    # evicting every entry
    basis = [
        cyclotomic.CyclotomicInteger(m, [int(i == k) for i in range(euler_phi(m))])
        for m in range(1, 65)
        for k in range(euler_phi(m))
    ]
    want = [numeric_direct(v, dps) for v in basis]
    assert len(basis) < cyclotomic.ROOT_CACHE_SIZE
    for evict in (True, False, True):
        if evict:
            cyclotomic._root_of_unity.cache_clear()
        for v, z in zip(basis, want):
            got = v.numeric(dps)
            assert (got.real._mpf_, got.imag._mpf_) == (z.real._mpf_, z.imag._mpf_), (v, dps)


def test_character_sum():
    def character_sum(m, exponents):
        return CyclotomicInteger.from_root_counts(m, np.bincount(np.asarray(exponents, dtype=np.int64) % m, minlength=m))

    assert character_sum(3, [0, 1, 2]) == 0
    assert character_sum(4, [0, 2]) == 0
    assert character_sum(6, [1, 5]) == 1  # zeta_6 + zeta_6^-1 = 1
    assert not character_sum(4, [1]).is_rational_integer
    assert character_sum(5, []) == 0


def test_from_root_counts_matches_sum():
    counts = [2, 0, -1, 3, 0, 0, 1, 0, 0]
    a = CyclotomicInteger.from_root_counts(9, counts)
    b = sum((c * zeta(9, e) for e, c in enumerate(counts)), CyclotomicInteger.from_int(0))
    assert a == b


@pytest.mark.parametrize("counts, coeffs", [
    ([2**63 + 5, 0, 0], (2**63 + 5, 0)),  # uint64 under np.asarray
    ([0, 0, 2**63 + 5], (-(2**63 + 5), -(2**63 + 5))),  # zeta^2 = -1 - zeta
    ([-(2**63 + 5), 0, 0], (-(2**63 + 5), 0)),
])
def test_from_root_counts_beyond_int64_is_exact(counts, coeffs):
    assert cyclotomic.CyclotomicInteger.from_root_counts(3, counts).coeffs == coeffs


def test_big_coefficient_fallback_is_exact():
    big = 1 << 40
    a = big * zeta(7, 1)
    b = big * zeta(7, 2)
    prod = a * b
    assert prod == (big * big) * zeta(7, 3)


def test_repr_is_readable():
    assert repr(CyclotomicInteger.from_int(5)) == "5"
    assert "z5" in repr(zeta(5, 1))


@settings(max_examples=50, deadline=None)
@given(
    st.integers(1, 24),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    st.lists(st.integers(-9, 9), min_size=1, max_size=6),
)
def test_ring_axioms(m, acs, bcs):
    phi = euler_phi(m)
    a = CyclotomicInteger(m, (acs * phi)[:phi])
    b = CyclotomicInteger(m, (bcs * phi)[:phi])
    c = zeta(m, 1)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a - a == 0
    assert a * 1 == a
    assert a * 0 == 0


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 16), st.integers(0, 40), st.integers(0, 40))
def test_root_powers_multiply(m, e1, e2):
    assert zeta(m, e1) * zeta(m, e2) == zeta(m, e1 + e2)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 18), st.lists(st.integers(-5, 5), min_size=1, max_size=5))
def test_numeric_matches_sympy(m, cs):
    sympy = pytest.importorskip("sympy")
    phi = euler_phi(m)
    coeffs = (cs * phi)[:phi]
    v = CyclotomicInteger(m, coeffs)
    zs = sympy.exp(2 * sympy.pi * sympy.I / m)
    exact = sum(c * zs**i for i, c in enumerate(coeffs))
    ours = v.numeric(35)
    theirs = complex(sympy.N(exact, 35))
    assert abs(complex(ours.real, ours.imag) - theirs) < 1e-25


def test_power_table_is_the_high_rows_of_the_full_table():
    for r in list(range(1, 130)) + [210, 330, 385, 1155, 2039]:
        if math.prod(cyclotomic._primes(r)) != r:
            continue  # tables are built for squarefree conductors only
        phi = euler_phi(r)
        got, want = _power_table(r), reference_power_table(r)[phi:r]
        assert got.dtype == want.dtype == np.int64, r
        assert got.shape == want.shape == (r - phi, phi), r
        assert np.array_equal(got, want), r


@pytest.mark.parametrize("m", [1, 2, 4, 8, 64, 128, 1024, 2048, 9, 27, 243, 25, 125, 49, 343, 121, 210, 486, 1155, 1536, 1944, 2039])
def test_reduce_root_counts_matches_the_full_table(m):
    rng = np.random.default_rng(m)
    counts = rng.integers(-50, 50, size=(17, m))
    got = reduce_root_counts(counts, m)
    assert got.dtype == np.int64 and got.shape == (17, euler_phi(m))
    assert got.tolist() == reduce_by_full_table(counts, m).tolist()
    assert reduce_root_counts(counts[:0], m).shape == (0, euler_phi(m))
    assert reduce_root_counts(counts[:6].reshape(2, 3, m), m).tolist() == got[:6].reshape(2, 3, -1).tolist()


def test_spectrum_of_the_2048_cycle_builds_only_the_table_of_2(monkeypatch):
    built = []
    build = cyclotomic._power_table.__wrapped__

    def spy(r):
        built.append(r)
        return build(r)

    monkeypatch.setattr(cyclotomic, "_power_table", ft.lru_cache(maxsize=None)(spy))
    values = spectrum(cycle(2048).graph).values
    assert len(values) == 1025 and values[0] == 2 and values[-1] == -2
    assert built == [2]
