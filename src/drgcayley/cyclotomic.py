"""Exact arithmetic in rings of cyclotomic integers Z[zeta_m].

Elements are stored as integer coordinate vectors in the power basis
{1, x, ..., x^{phi(m)-1}} of Z[x]/(Phi_m), with zeta_m the primitive
m-th root of unity e^{2*pi*i/m}.  Mixed conductors are combined, and
compared for equality, by lifting to the lcm.  Values are not hashable:
one value has coordinates at every multiple of its conductor.
"""

from __future__ import annotations

import functools as ft
from math import gcd
from typing import List, Sequence, Tuple

import numpy as np

from .errors import InvariantViolation, SpecError

_INT64_SAFE = 1 << 62


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


class CyclotomicInteger:
    """An element of Z[zeta_m] in the power basis mod Phi_m."""

    __slots__ = ("conductor", "coeffs")

    def __init__(self, conductor: int, coeffs: Sequence[int]):
        phi = euler_phi(conductor)
        co = tuple(int(c) for c in coeffs)
        if len(co) != phi:
            raise SpecError(f"expected {phi} coordinates for conductor {conductor}, got {len(co)}")
        self.conductor = conductor
        self.coeffs = co

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_int(cls, k: int) -> "CyclotomicInteger":
        return cls(1, (int(k),))

    @classmethod
    def from_root_power(cls, m: int, e: int) -> "CyclotomicInteger":
        """zeta_m ** e."""
        tab = _power_table(m)
        return cls(m, tuple(int(v) for v in tab[e % m]))

    @classmethod
    def from_root_counts(cls, m: int, counts: Sequence[int]) -> "CyclotomicInteger":
        """sum_e counts[e] * zeta_m^e for an integer vector over 0..m-1."""
        cnt = np.asarray(counts)
        if cnt.shape != (m,):
            raise SpecError(f"expected {m} counts, got shape {cnt.shape}")
        return cls(m, tuple(int(v) for v in reduce_root_counts(cnt, m)))

    # -- conversions --------------------------------------------------------
    def lift(self, m2: int) -> "CyclotomicInteger":
        """Rewrite at a conductor m2 that is a multiple of the current one."""
        m = self.conductor
        if m2 == m:
            return self
        if m2 % m != 0:
            raise SpecError(f"cannot lift conductor {m} to non-multiple {m2}")
        step = m2 // m
        counts = [0] * m2
        for i, a in enumerate(self.coeffs):
            if a:
                counts[i * step] += a
        return CyclotomicInteger.from_root_counts(m2, counts)

    def galois(self, t: int) -> "CyclotomicInteger":
        """Image under zeta_m -> zeta_m^t; t must be coprime to the conductor."""
        m = self.conductor
        if gcd(t, m) != 1:
            raise SpecError(f"galois exponent {t} not coprime to conductor {m}")
        counts = [0] * m
        for i, a in enumerate(self.coeffs):
            if a:
                counts[(i * t) % m] += a
        return CyclotomicInteger.from_root_counts(m, counts)

    def conjugate(self) -> "CyclotomicInteger":
        return self.galois(-1 % self.conductor) if self.conductor > 1 else self

    @property
    def is_rational_integer(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def as_int(self) -> int:
        if not self.is_rational_integer:
            raise SpecError(f"{self} is not a rational integer")
        return self.coeffs[0]

    def numeric(self, dps: int = 40):
        """Complex value via mpmath at the requested working precision."""
        import mpmath

        with mpmath.workdps(dps):
            m = self.conductor
            total = mpmath.mpc(0)
            for i, a in enumerate(self.coeffs):
                if a:
                    total += a * mpmath.e ** (2j * mpmath.pi * i / m)
            return total

    # -- ring operations ---------------------------------------------------
    def _pair(self, other: "CyclotomicInteger") -> Tuple["CyclotomicInteger", "CyclotomicInteger"]:
        m = self.conductor * other.conductor // gcd(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    def __add__(self, other) -> "CyclotomicInteger":
        other = _coerce(other)
        a, b = self._pair(other)
        return CyclotomicInteger(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __radd__(self, other) -> "CyclotomicInteger":
        return self.__add__(other)

    def __sub__(self, other) -> "CyclotomicInteger":
        other = _coerce(other)
        a, b = self._pair(other)
        return CyclotomicInteger(a.conductor, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other) -> "CyclotomicInteger":
        return _coerce(other).__sub__(self)

    def __neg__(self) -> "CyclotomicInteger":
        return CyclotomicInteger(self.conductor, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "CyclotomicInteger":
        if isinstance(other, int):
            return CyclotomicInteger(self.conductor, tuple(other * c for c in self.coeffs))
        other = _coerce(other)
        a, b = self._pair(other)
        m = a.conductor
        phi = euler_phi(m)
        amax = max((abs(c) for c in a.coeffs), default=0)
        bmax = max((abs(c) for c in b.coeffs), default=0)
        tab = _power_table(m)[: 2 * phi - 1]
        # each convolution entry is below phi * amax * bmax
        dtype = exact_dtype(phi * amax * bmax * _table_row_bound(m) * (2 * phi), tab)
        conv = np.convolve(np.array(a.coeffs, dtype=dtype), np.array(b.coeffs, dtype=dtype))
        vec = conv @ tab.astype(dtype, copy=False)
        return CyclotomicInteger(m, tuple(int(v) for v in vec))

    def __rmul__(self, other) -> "CyclotomicInteger":
        return self.__mul__(other)

    def __pow__(self, n: int) -> "CyclotomicInteger":
        if n < 0:
            raise SpecError("negative powers are not in the ring")
        out = CyclotomicInteger.from_int(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- comparison -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.is_rational_integer and self.coeffs[0] == other
        if not isinstance(other, CyclotomicInteger):
            return NotImplemented
        a, b = self._pair(other)
        return a.coeffs == b.coeffs

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


def _coerce(value) -> CyclotomicInteger:
    if isinstance(value, CyclotomicInteger):
        return value
    if isinstance(value, (int, np.integer)):
        return CyclotomicInteger.from_int(int(value))
    raise SpecError(f"cannot interpret {value!r} as a cyclotomic integer")


def zeta(m: int, e: int = 1) -> CyclotomicInteger:
    return CyclotomicInteger.from_root_power(m, e)
