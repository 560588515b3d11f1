"""Integer group-algebra elements and the exact Fourier transform.

An algebra element is an integer coefficient vector indexed by group
elements in index order; multiplication is convolution over the group.
Fourier coefficients are cyclotomic integers at the group exponent,
one per character chi_g(x) = zeta_m^{e(g,x)}.
"""

from __future__ import annotations

import functools as ft
from typing import Iterable, Sequence, Tuple, Union

import numpy as np

from .cyclotomic import CyclotomicInteger, _power_table, euler_phi, reduce_root_counts
from .errors import InvariantViolation, SpecError
from .groups import GROUP_CACHE_SIZE, AbelianGroup, GroupElement

MAX_FOURIER_ORDER = 512
CHARACTER_CHUNK_ENTRIES = 1 << 18  # int64 entries per character_values temporary


class AlgebraElement:
    """sum_g coeffs[g] * g in the integral group ring Z[G]."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: AbelianGroup, coeffs: Sequence[int]):
        vec = np.asarray(coeffs, dtype=np.int64)
        if vec.shape != (group.order,):
            raise SpecError(f"expected {group.order} coefficients, got shape {vec.shape}")
        self.group = group
        self.coeffs = vec

    @classmethod
    def from_set(cls, group: AbelianGroup, elements: Iterable[Union[GroupElement, int]]) -> "AlgebraElement":
        vec = np.zeros(group.order, dtype=np.int64)
        for e in elements:
            i = e if isinstance(e, (int, np.integer)) else group.index(e)
            if not 0 <= i < group.order:
                raise SpecError(f"element index {i} out of range")
            vec[i] += 1
        if vec.max(initial=0) > 1:
            raise SpecError("from_set expects distinct elements")
        return cls(group, vec)

    @classmethod
    def unit(cls, group: AbelianGroup) -> "AlgebraElement":
        vec = np.zeros(group.order, dtype=np.int64)
        vec[group.index(group.zero)] = 1
        return cls(group, vec)

    def _same_group(self, other: "AlgebraElement") -> None:
        if self.group != other.group:
            raise SpecError("algebra elements belong to different groups")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_group(other)
        return AlgebraElement(self.group, self.coeffs + other.coeffs)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._same_group(other)
        return AlgebraElement(self.group, self.coeffs - other.coeffs)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.group, -self.coeffs)

    def __rmul__(self, k: int) -> "AlgebraElement":
        if not isinstance(k, (int, np.integer)):
            return NotImplemented
        return AlgebraElement(self.group, int(k) * self.coeffs)

    def __mul__(self, other) -> "AlgebraElement":
        if isinstance(other, (int, np.integer)):
            return self.__rmul__(other)
        self._same_group(other)
        sub = self.group.sub_table()
        # (a b)[t] = sum_g a[g] b[t - g]
        return AlgebraElement(self.group, other.coeffs[sub] @ self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.group == other.group
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self) -> int:
        return hash((self.group.moduli, self.coeffs.tobytes()))

    def reversed(self) -> "AlgebraElement":
        """Image under g -> -g."""
        return AlgebraElement(self.group, self.coeffs[self.group.neg_table()])

    def coeff(self, g: GroupElement) -> int:
        return int(self.coeffs[self.group.index(g)])

    def support(self) -> Tuple[GroupElement, ...]:
        els = self.group.elements()
        return tuple(els[i] for i in np.flatnonzero(self.coeffs))

    def __repr__(self) -> str:
        terms = [f"{int(c)}*{els}" for els, c in zip(self.group.elements(), self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


# ---------------------------------------------------------------------------
# Fourier analysis


@ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
def character_table(group: AbelianGroup) -> np.ndarray:
    """table[g, x] = e(g, x), the exponent with chi_g(x) = zeta_m^e, m the
    group exponent: one cached read-only (n, n) int32 matrix per group,
    rows and columns in index order (it is symmetric)."""
    m = group.exponent
    coords = group.coords_matrix()
    weights = np.array([m // n for n in group.moduli], dtype=np.int64)
    table = ((coords * weights) @ coords.T % m).astype(np.int32)
    table.setflags(write=False)
    return table


def character_values(group: AbelianGroup, classes: Sequence[Sequence[int]]) -> np.ndarray:
    """values[g, i] = chi_g(N_i) = sum over x in classes[i] of chi_g(x), exact.

    Returns the power-basis coordinates at the group exponent m as an
    (n, r, phi(m)) array, one row per character in index order; the
    classes need not cover the group.  Each value is the root-count
    vector of its class under the character table, reduced by
    reduce_root_counts.
    """
    n, m = group.order, group.exponent
    r = len(classes)
    members = [np.asarray(cls, dtype=np.intp).reshape(-1) for cls in classes]
    cols = np.concatenate(members) if members else np.zeros(0, dtype=np.intp)
    # a (g, x) pair adds one to counts[g, class of x, e(g, x)]
    labels = np.repeat(np.arange(r, dtype=np.intp) * m, [len(c) for c in members])
    table = character_table(group)
    step = max(1, CHARACTER_CHUNK_ENTRIES // max(r * m, cols.size, 1))
    blocks = []
    for lo in range(0, n, step):
        rows = table[lo : lo + step]
        k = rows.shape[0]
        key = rows[:, cols] + labels
        key += np.arange(k, dtype=np.intp)[:, None] * (r * m)
        counts = np.bincount(key.ravel(), minlength=k * r * m).reshape(k * r, m)
        vals = reduce_root_counts(counts, m)
        blocks.append(vals.reshape(k, r, -1))
    return np.concatenate(blocks)


def character_value(group: AbelianGroup, g: GroupElement, x: GroupElement) -> CyclotomicInteger:
    """chi_g(x) as an exact root of unity at the group exponent."""
    return CyclotomicInteger.from_root_power(group.exponent, group.pairing_exponent(g, x))


def fourier_coefficient(group: AbelianGroup, vec: Sequence[int], g: GroupElement) -> CyclotomicInteger:
    """hat(a)(chi_g) = sum_x a[x] chi_g(x), exact."""
    arr = np.asarray(vec, dtype=np.int64)
    if arr.shape != (group.order,):
        raise SpecError("coefficient vector has wrong length")
    m = group.exponent
    counts = np.zeros(m, dtype=np.int64)
    np.add.at(counts, character_table(group)[group.index(g)], arr)
    return CyclotomicInteger.from_root_counts(m, counts)


def fourier_transform(group: AbelianGroup, vec: Sequence[int]) -> Tuple[CyclotomicInteger, ...]:
    """All Fourier coefficients in character index order."""
    if group.order > MAX_FOURIER_ORDER:
        raise SpecError(f"full Fourier transform limited to order {MAX_FOURIER_ORDER}")
    return tuple(fourier_coefficient(group, vec, g) for g in group.elements())


def fourier_inverse(group: AbelianGroup, values: Sequence[CyclotomicInteger]) -> np.ndarray:
    """Recover the integer coefficient vector from one value per character.

    a[x] = (1/|G|) sum_g values[g] * chi_g(-x); raises if the result is
    not an integer vector (i.e. the values are not a valid transform).
    """
    n = group.order
    if len(values) != n:
        raise SpecError(f"expected {n} character values")
    if n > MAX_FOURIER_ORDER:
        raise SpecError(f"Fourier inversion limited to order {MAX_FOURIER_ORDER}")
    m = group.exponent
    phi = euler_phi(m)
    coeff_rows = np.zeros((n, phi), dtype=object)
    for gi, v in enumerate(values):
        cv = v if isinstance(v, CyclotomicInteger) else CyclotomicInteger.from_int(int(v))
        if m % cv.conductor != 0:
            raise SpecError("character value conductor does not divide the group exponent")
        coeff_rows[gi] = np.array(cv.lift(m).coeffs, dtype=object)
    table = character_table(group)
    out = np.zeros(n, dtype=np.int64)
    for xi in range(n):
        tvec = (-table[xi]) % m  # exponent of chi_g(-x) per g
        counts = np.zeros(m, dtype=object)
        for i in range(phi):
            col = coeff_rows[:, i]
            np.add.at(counts, (tvec + i) % m, col)
        total = CyclotomicInteger.from_root_counts(m, counts)
        if not total.is_rational_integer or total.as_int() % n != 0:
            raise SpecError("values are not the Fourier transform of an integer vector")
        out[xi] = total.as_int() // n
    return out


def fourier_roundtrip_batch(group: AbelianGroup, vectors: Sequence[Sequence[int]]) -> np.ndarray:
    """Apply every character to each row and invert the results, exactly.

    Row-for-row equivalent to fourier_inverse(fourier_transform(row)),
    but batched: character values stay as root-of-unity count vectors and
    the inversion reduces through the same power-basis table the scalar
    path uses, so the arithmetic is integer throughout.  Returns the
    recovered batch and raises SpecError when a recovered entry fails to
    be an integer, which cannot happen for genuine transforms.
    """
    arr = np.asarray(vectors, dtype=np.int64)
    if arr.ndim == 1:
        arr = arr[None, :]
    n = group.order
    if arr.ndim != 2 or arr.shape[1] != n:
        raise SpecError(f"expected rows of length {n}")
    if n > MAX_FOURIER_ORDER:
        raise SpecError(f"batched roundtrip limited to order {MAX_FOURIER_ORDER}")
    m = group.exponent
    batch = arr.shape[0]
    pairing = character_table(group)
    eye = np.eye(m, dtype=np.int64)
    counts = np.empty((batch, n, m), dtype=np.int64)
    for gi in range(n):
        counts[:, gi, :] = arr @ eye[pairing[gi]]
    # n * a[x] = sum_f zeta^f * D[x, f] with
    # D[x, f] = sum_g counts[g, (f + e(g, x)) % m]
    folded = np.empty((batch, n, m), dtype=np.int64)
    gsel = np.arange(n)[:, None]
    for f in range(m):
        slot = (pairing + f) % m
        folded[:, :, f] = counts[:, gsel, slot].sum(axis=1)
    reduction = np.asarray(_power_table(m)[:m], dtype=np.int64)
    coords = folded @ reduction
    if np.any(coords[:, :, 1:]) or np.any(coords[:, :, 0] % n):
        raise SpecError("values are not the Fourier transform of an integer vector")
    return coords[:, :, 0] // n
