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
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvariantViolation, SpecError

_INT64_SAFE = 1 << 62
ROOT_CACHE_SIZE = 4096  # distinct (m, k, dps) roots of unity kept


@ft.lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise SpecError(f"conductor must be positive, got {m}")
    result = m
    n = m
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


@ft.lru_cache(maxsize=None)
def divisors(m: int) -> Tuple[int, ...]:
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return tuple(small + large[::-1])


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


@ft.lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> Tuple[int, ...]:
    """Coefficients of Phi_m, low degree first, via exact division of
    x^m - 1 by the product of Phi_d for proper divisors d."""
    if m < 1:
        raise SpecError(f"conductor must be positive, got {m}")
    if m == 1:
        return (-1, 1)
    num = [0] * (m + 1)
    num[0] = -1
    num[m] = 1
    for d in divisors(m):
        if d == m:
            continue
        quot, rem = _poly_divmod(num, cyclotomic_polynomial(d))
        if any(rem):
            raise InvariantViolation(f"x^{m}-1 is not divisible by Phi_{d}")
        num = quot
    while len(num) > 1 and num[-1] == 0:
        num.pop()
    if len(num) - 1 != euler_phi(m):
        raise InvariantViolation(f"Phi_{m} has wrong degree")
    return tuple(num)


@ft.lru_cache(maxsize=None)
def _power_table(m: int) -> np.ndarray:
    """Row e holds the power-basis coordinates of x^e mod Phi_m, for
    e up to max(m, 2*phi(m)-1) exclusive (covers root exponents and
    products of two reduced elements).  Rows below phi are unit vectors,
    x^phi = -(the low terms of Phi_m), each later row is the one before
    times x, and x^m = 1 makes rows m and up repeat rows 0 and up."""
    phi = euler_phi(m)
    poly = np.array(cyclotomic_polynomial(m)[:phi], dtype=object)
    high = np.empty((m - phi, phi), dtype=object)
    cur = -poly
    for e in range(m - phi):
        high[e] = cur
        # multiply by x: shift, then fold the overflow via x^phi = -(low terms)
        cur = np.concatenate(([0], cur[:-1])) - cur[-1] * poly
    arr = np.concatenate([np.eye(phi, dtype=np.int64).astype(object), high])
    if max(high.max(initial=0), -high.min(initial=0)) < 2**31:
        arr = arr.astype(np.int64)
    return arr[np.arange(max(m, 2 * phi - 1)) % m]


@ft.lru_cache(maxsize=None)
def _table_row_bound(m: int) -> int:
    """max over basis coordinates of the column sum of |entries|; used to
    certify that int64 accumulation cannot overflow."""
    tab = _power_table(m)
    if tab.dtype == object:
        return _INT64_SAFE
    return int(np.abs(tab).sum(axis=0).max())


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
    last axis running over e = 0..m-1, exactly.  zeta^e for e < phi(m) is
    a basis vector, so only the counts of the higher powers go through
    the power table, bounded by max|count| * _table_row_bound(m) * m."""
    phi = euler_phi(m)
    power = _power_table(m)[phi:m]
    dtype = exact_dtype(int(np.abs(counts).max(initial=0)) * _table_row_bound(m) * m, counts, power)
    high = counts[..., phi:].astype(dtype, copy=False)
    return counts[..., :phi] + high @ power.astype(dtype, copy=False)


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

