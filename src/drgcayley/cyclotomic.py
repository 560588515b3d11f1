"""Cyclotomic integers Z[zeta_m]: exact reduction of root counts and
the values the program builds, prints and evaluates.

Elements are stored as integer coordinate vectors in the power basis
{1, x, ..., x^{phi(m)-1}} of Z[x]/(Phi_m), with zeta_m the primitive
m-th root of unity e^{2*pi*i/m}.  A character sum comes in as counts of
root powers and reduce_root_counts folds them into that basis.  Values
compare equal to ints and to values at the same conductor, and are not
hashable.  The ring arithmetic (sums, products, Galois action, lifting
to a multiple conductor) is test-side code in tests/reference.py: the
program never needs it.
"""

from __future__ import annotations

import functools as ft
from math import prod
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvariantViolation, SpecError
from .groups import GROUP_CACHE_SIZE

_INT64_SAFE = 1 << 62
ROOT_CACHE_SIZE = 4096  # distinct (m, k, dps) roots of unity kept


@ft.lru_cache(maxsize=None)
def _primes(m: int) -> Tuple[int, ...]:
    """The distinct primes dividing m, increasing."""
    if m < 1:
        raise SpecError(f"conductor must be positive, got {m}")
    primes = []
    p = 2
    while p * p <= m:
        if m % p == 0:
            primes.append(p)
            while m % p == 0:
                m //= p
        p += 1 if p == 2 else 2
    if m > 1:
        primes.append(m)
    return tuple(primes)


@ft.lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    primes = _primes(m)
    return m // prod(primes) * prod(p - 1 for p in primes)


def _poly_divmod(num: Sequence[int], den: Sequence[int]) -> Tuple[List[int], List[int]]:
    """Exact division of integer polynomials with monic divisor."""
    num = list(num)
    den = list(den)
    if den[-1] != 1:
        raise InvariantViolation("polynomial division expects a monic divisor")
    dn = len(den) - 1
    quot = [0] * max(1, len(num) - dn)
    for i in range(len(num) - 1, dn - 1, -1):
        c = num[i]
        if c == 0:
            continue
        quot[i - dn] = c
        for j, dcoef in enumerate(den):
            num[i - dn + j] -= c * dcoef
    return quot, num[:dn] if dn else [0]


def _substitute_power(poly: Sequence[int], q: int) -> List[int]:
    """Coefficients of poly(x^q), low degree first."""
    out = [0] * ((len(poly) - 1) * q + 1)
    out[::q] = poly
    return out


@ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
def cyclotomic_polynomial(m: int) -> Tuple[int, ...]:
    """Coefficients of Phi_m, low degree first: Phi_1 = x - 1, then
    Phi_rq(x) = Phi_r(x^q) / Phi_r(x) for each prime q of m in turn (q
    does not divide the squarefree r), and Phi_m(x) = Phi_r(x^(m/r)) for
    r = rad(m)."""
    poly, r = [-1, 1], 1
    for q in _primes(m):
        poly, rem = _poly_divmod(_substitute_power(poly, q), poly)
        if any(rem):
            raise InvariantViolation(f"Phi_{r}(x^{q}) is not divisible by Phi_{r}")
        r *= q
    return tuple(_substitute_power(poly, m // r))


@ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
def _power_table(r: int) -> np.ndarray:
    """Row e - phi(r) holds the power-basis coordinates of x^e mod Phi_r
    for phi(r) <= e < r, r squarefree: x^phi = -(the low terms of Phi_r),
    and each later row is the one before times x."""
    phi = euler_phi(r)
    poly = np.array(cyclotomic_polynomial(r)[:phi], dtype=object)
    high = np.empty((r - phi, phi), dtype=object)
    cur = -poly
    for e in range(r - phi):
        high[e] = cur
        # multiply by x: shift, then fold the overflow via x^phi = -(low terms)
        cur = np.concatenate(([0], cur[:-1])) - cur[-1] * poly
    if max(high.max(initial=0), -high.min(initial=0)) < 2**31:
        high = high.astype(np.int64)
    return high


@ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
def _table_row_bound(r: int) -> int:
    """max over basis coordinates of the column sum of |entries| of the
    power table; used to certify that int64 accumulation cannot overflow."""
    return int(np.abs(_power_table(r)).sum(axis=0).max(initial=0))


def exact_dtype(bound: int, *arrays: np.ndarray):
    """The dtype for exact integer arithmetic whose intermediates stay
    below `bound` in absolute value: int64 when the bound rules out
    overflow and no operand already holds Python integers, object
    (Python integers) otherwise."""
    if bound >= _INT64_SAFE or any(a.dtype == object for a in arrays):
        return object
    return np.int64


def reduce_root_counts(counts: np.ndarray, m: int) -> np.ndarray:
    """Power-basis coordinates of sum_e counts[..., e] * zeta_m^e, the
    last axis running over e = 0..m-1, exactly.  With r = rad(m) and
    s = m/r, Phi_m(x) = Phi_r(x^s), so zeta_m^(j*s+i) = zeta_m^i * zeta_r^j
    and coordinate j*s + i for j < phi(r) is a basis vector: only the
    counts with j >= phi(r) go through r's power table, each output
    bounded by max|count| * (1 + _table_row_bound(r))."""
    r = prod(_primes(m))
    s, phi = m // r, euler_phi(r)
    power = _power_table(r)
    dtype = exact_dtype(int(np.abs(counts).max(initial=0)) * (1 + _table_row_bound(r)), counts, power)
    lead = counts.shape[:-1]
    by_i = np.swapaxes(counts.reshape(lead + (r, s)), -1, -2)  # [..., i, j]
    out = by_i[..., :phi] + by_i[..., phi:].astype(dtype, copy=False) @ power.astype(dtype, copy=False)
    return np.swapaxes(out, -1, -2).reshape(lead + (phi * s,))


@ft.lru_cache(maxsize=ROOT_CACHE_SIZE)
def _root_of_unity(m: int, k: int, dps: int):
    """zeta_m^k as mpmath evaluates e^(2 pi i k/m) at dps digits: the
    same expression under the same precision, so a cached root is the
    bits a fresh evaluation would give."""
    import mpmath

    with mpmath.workdps(dps):
        return mpmath.e ** (2j * mpmath.pi * k / m)


class CyclotomicInteger:
    """An element of Z[zeta_m] in the power basis mod Phi_m, as the
    program builds, prints and evaluates it."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Sequence[int]):
        phi = euler_phi(conductor)
        co = tuple(int(c) for c in coeffs)
        if len(co) != phi:
            raise SpecError(f"expected {phi} coordinates for conductor {conductor}, got {len(co)}")
        self.conductor = conductor
        self.coeffs = co

    @classmethod
    def from_root_counts(cls, m: int, counts: Sequence[int]) -> "CyclotomicInteger":
        """sum_e counts[e] * zeta_m^e for an integer vector over 0..m-1."""
        cnt = np.array(counts, dtype=object)
        if cnt.shape != (m,):
            raise SpecError(f"expected {m} counts, got shape {cnt.shape}")
        cnt = cnt.astype(exact_dtype(int(np.abs(cnt).max(initial=0))))
        return cls(m, tuple(int(v) for v in reduce_root_counts(cnt, m)))

    @property
    def is_rational_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def numeric(self, dps: int = 40):
        """Complex value via mpmath at the requested working precision."""
        import mpmath

        with mpmath.workdps(dps):
            m = self.conductor
            total = mpmath.mpc(0)
            for i, a in enumerate(self.coeffs):
                if a:
                    total += a * _root_of_unity(m, i, dps)
            return total

    def __eq__(self, other) -> bool:
        """Equality with an int, or with a value at the same conductor."""
        if isinstance(other, int):
            return self.is_rational_integer and self.coeffs[0] == other
        if isinstance(other, CyclotomicInteger) and other.conductor == self.conductor:
            return self.coeffs == other.coeffs
        return NotImplemented

    def __repr__(self) -> str:
        if self.is_rational_integer:
            return str(self.coeffs[0])
        m = self.conductor
        parts = []
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            if i == 0:
                parts.append(str(a))
            else:
                mono = f"z{m}" if i == 1 else f"z{m}^{i}"
                parts.append(mono if a == 1 else f"-{mono}" if a == -1 else f"{a}*{mono}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"

