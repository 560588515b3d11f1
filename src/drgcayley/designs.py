"""Design-theoretic checkers attached to the Cayley graph machinery.

Relative difference sets and polynomial addition sets are verified by
exact convolution in the integer group algebra: coefficient vectors in
index order, multiplied by one gather over the group's subtraction
table, in int64 when a bound on the coefficients allows it and in
Python integers otherwise.  Direction sets of affine point sets over
prime fields are counted exactly and checked against the lower bound on
their size.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .cyclotomic import exact_dtype
from .errors import SpecError
from .groups import (
    AbelianGroup,
    GroupElement,
    Subgroup,
    format_element,
    is_prime,
)

MAX_PAS_WORK = 1 << 25  # degree x |G|^2 x 64-bit words of the largest value


# ---------------------------------------------------------------------------
# Group-algebra vectors


def _indicator(group: AbelianGroup, elements: Iterable[GroupElement], dtype) -> np.ndarray:
    vec = np.zeros(group.order, dtype=dtype)
    for g in elements:
        vec[group.index(g)] = 1
    return vec


def _convolve(group: AbelianGroup, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a b)[t] = sum_g a[g] b[t - g], in the dtype of the operands."""
    return b[group.sub_table()] @ a


# ---------------------------------------------------------------------------
# Relative difference sets


@dataclass(frozen=True)
class RDSCheck:
    """Outcome of the relative difference set test.

    params holds (m, r, k, mu) on success: subgroup index, subgroup
    order, set size and the common difference count outside the
    subgroup.  A refusal names the first element (index order) whose
    count breaks the pattern.
    """

    ok: bool
    params: Optional[Tuple[int, int, int, int]] = None
    witness: Optional[GroupElement] = None
    expected: Optional[int] = None
    actual: Optional[int] = None

    def to_dict(self) -> dict:
        out: dict = {"ok": self.ok}
        if self.ok:
            m, r, k, mu = self.params
            out["params"] = {"m": m, "r": r, "k": k, "mu": mu}
        else:
            out["witness"] = format_element(self.witness)
            out["expected"] = self.expected
            out["actual"] = self.actual
        return out


def is_relative_difference_set(group: AbelianGroup, dset: Iterable[GroupElement],
                               forbidden: Subgroup) -> RDSCheck:
    """Decide whether dset is a relative difference set for the forbidden
    subgroup by expanding the difference multiset exactly.

    The defining identity asks the convolution of the set with its
    reversal to equal k at the identity, zero on the rest of the
    subgroup, and a constant mu outside it; with no integral mu, every
    element outside the subgroup breaks it.
    """
    if forbidden.group != group:
        raise SpecError("forbidden subgroup belongs to a different group")
    r = forbidden.order
    if r == group.order:
        raise SpecError("forbidden subgroup must be proper")
    dd = frozenset(dset)
    k = len(dd)
    a = _indicator(group, dd, np.int64)
    conv = _convolve(group, a, a[group.neg_table()])
    outside = group.order - r
    mu: Optional[int] = None
    if k * (k - 1) % outside == 0:
        mu = k * (k - 1) // outside
    # -1 stands for "no mu": no difference count is negative
    want = np.full(group.order, -1 if mu is None else mu, dtype=np.int64)
    want[list(forbidden.indices)] = 0
    want[0] = k
    bad = np.flatnonzero(conv != want)
    if bad.size:
        i = int(bad[0])
        expected = int(want[i]) if want[i] >= 0 else None
        return RDSCheck(False, None, group.from_index(i), expected, int(conv[i]))
    return RDSCheck(True, (group.order // r, r, k, mu))


# ---------------------------------------------------------------------------
# Polynomial addition sets


@dataclass(frozen=True)
class PASCheck:
    """Outcome of the polynomial addition set test; m is the multiplier of
    the full group sum on success, and a refusal records the first
    element whose coefficient differs from the one at the identity."""

    ok: bool
    m: Optional[int] = None
    witness: Optional[GroupElement] = None
    residual: Optional[int] = None

    def to_dict(self) -> dict:
        if self.ok:
            return {"ok": True, "m": self.m}
        return {"ok": False, "witness": format_element(self.witness),
                "residual": self.residual}


def is_polynomial_addition_set(group: AbelianGroup, dset: Iterable[GroupElement],
                               poly: Sequence[int]) -> PASCheck:
    """Evaluate poly (ascending coefficients, constant term acting on the
    identity) at the indicator sum of dset and test the result for being
    an integer multiple of the full group sum.

    Every coefficient of D^i is nonnegative and they sum to |D|^i, so
    sum_i |c_i| |D|^i bounds every intermediate value.  Each degree costs a
    |G| x |G| product of such values: above MAX_PAS_WORK, SpecError."""
    coeffs = [int(c) for c in poly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise SpecError("polynomial must have degree at least 1")
    dd = frozenset(dset)
    degree = len(coeffs) - 1
    work = degree * group.order**2
    if work <= MAX_PAS_WORK:  # else refuse before the bound's long sum
        bound = sum(abs(c) * len(dd) ** i for i, c in enumerate(coeffs))
        work *= 1 + bound.bit_length() // 64
    if work > MAX_PAS_WORK:
        raise SpecError(f"degree {degree} over order {group.order} needs over {MAX_PAS_WORK} units of work")
    dtype = exact_dtype(bound)
    base = _indicator(group, dd, dtype)
    power = _indicator(group, [group.zero], dtype)
    acc = coeffs[0] * power
    for c in coeffs[1:]:
        power = _convolve(group, base, power)
        if c:
            acc = acc + c * power
    ref = int(acc[0])
    bad = np.flatnonzero(acc != acc[0])
    if bad.size:
        i = int(bad[0])
        return PASCheck(False, None, group.from_index(i), int(acc[i]) - ref)
    return PASCheck(True, ref)


# ---------------------------------------------------------------------------
# Direction sets


@dataclass(frozen=True)
class DirectionSet:
    """Directions determined by an affine point set over F_p; the value p
    inside slopes stands for the vertical direction."""

    p: int
    slopes: FrozenSet[int]

    def __len__(self) -> int:
        return len(self.slopes)

    @property
    def has_infinity(self) -> bool:
        return self.p in self.slopes

    def labels(self) -> Tuple[str, ...]:
        out = [str(s) for s in sorted(s for s in self.slopes if s != self.p)]
        if self.has_infinity:
            out.append("inf")
        return tuple(out)

    def to_dict(self) -> dict:
        return {"p": self.p, "slopes": list(self.labels())}


def _normalize_points(p: int, points) -> List[Tuple[int, int]]:
    if not is_prime(p):
        raise SpecError("direction sets live over prime fields")
    pts = set()
    for w in points:
        if isinstance(w, GroupElement):
            if len(w.coords) != 2:
                raise SpecError("points must have two coordinates")
            x, y = w.coords
        else:
            x, y = w
        pts.add((int(x) % p, int(y) % p))
    if not 1 < len(pts) <= p:
        raise SpecError(f"need between 2 and {p} distinct points, got {len(pts)}")
    return sorted(pts)


def directions(p: int, points) -> DirectionSet:
    """Slopes spanned by the pairs of a set of between 2 and p points of
    the affine plane over F_p."""
    pts = _normalize_points(p, points)
    slopes = set()
    for (x1, y1), (x2, y2) in combinations(pts, 2):
        if x1 == x2:
            slopes.add(p)
        else:
            slopes.add(((y1 - y2) * pow(x1 - x2, -1, p)) % p)
    return DirectionSet(p, frozenset(slopes))


def direction_bound_check(p: int, points) -> str:
    """Classify a point set: "collinear" when a single direction occurs,
    "bound-holds" when at least (|W| + 3) / 2 directions occur.  The
    remaining answer "VIOLATION" cannot arise for sets of at most p
    points and would signal a bug."""
    pts = _normalize_points(p, points)
    dirs = directions(p, pts)
    if len(dirs) == 1:
        return "collinear"
    if 2 * len(dirs) >= len(pts) + 3:
        return "bound-holds"
    return "VIOLATION"
