"""Cayley graphs over finite abelian groups: the exact
distance-regularity test with its distance classes, spectra,
imprimitivity, family labels and graph6 export.

Everything arithmetic is exact: convolutions are integer vectors,
eigenvalues are cyclotomic integers, and numerics are used only to fix
the descending eigenvalue order (behind a separation gate).
"""

from __future__ import annotations

import contextlib
import functools as ft
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .algebra import character_values, distinct_rows
from .cyclotomic import CyclotomicInteger, exact_dtype, reduce_root_counts
from .errors import InvariantViolation, NotConnectedError, PrecisionError, SpecError
from .groups import (
    AbelianGroup,
    GroupElement,
    Subgroup,
    _closure,
    format_element,
    is_prime,
    maximal_subgroups,
)

EIGENVALUE_GATE = 1e-9
MIN_DPS = 20  # at 18 digits some renderings of 2cos(2 pi a/m) differ from dps 40 (README)
MAX_DPS = 500  # the slowest accepted precision stays within seconds (README)
DRG_CACHE_SIZE = 512  # distinct (group, connection set) checks kept


class CayleyGraph:
    """Cay(G, S): vertices G, edges g ~ h iff h - g in S."""

    def __init__(self, group: AbelianGroup, connection: Iterable[GroupElement]):
        conn = frozenset(connection)
        # group.index raises SpecError for an element of another group
        idx = np.array([group.index(s) for s in conn], dtype=np.intp)
        vec = np.zeros(group.order, dtype=np.int64)
        vec[idx] = 1
        if vec[0]:  # index 0 is the identity
            raise SpecError("connection set contains the identity")
        if not vec[group.neg_table()[idx]].all():
            raise SpecError("connection set is not inverse closed")
        self.group = group
        self.connection = conn
        self._cache: Dict[str, object] = {"indicator": vec}

    # -- basics ----------------------------------------------------------
    @property
    def order(self) -> int:
        return self.group.order

    @property
    def degree(self) -> int:
        return len(self.connection)

    def indicator(self) -> np.ndarray:
        return self._cache["indicator"]  # type: ignore[return-value]

    def connection_indices(self) -> np.ndarray:
        return np.flatnonzero(self.indicator())

    def adjacency(self) -> np.ndarray:
        """Dense 0/1 matrix under the group's element order."""
        mat = self._cache.get("adjacency")
        if mat is None:
            mat = self.indicator()[self.group.sub_table().T].astype(np.int8)
            self._cache["adjacency"] = mat
        return mat  # type: ignore[return-value]

    def is_connected(self) -> bool:
        return _closure(self.group, self.connection_indices()).size == self.group.order

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CayleyGraph)
            and self.group == other.group
            and self.connection == other.connection
        )

    def __hash__(self) -> int:
        return hash((self.group.moduli, tuple(sorted(s.coords for s in self.connection))))

    def __repr__(self) -> str:
        return f"Cay({self.group}, {{{';'.join(format_element(s) for s in sorted(self.connection))}}})"


# ---------------------------------------------------------------------------
# intersection arrays and the distance-regularity test


@dataclass(frozen=True)
class IntersectionArray:
    b: Tuple[int, ...]  # b_0 .. b_{d-1}
    c: Tuple[int, ...]  # c_1 .. c_d

    def __post_init__(self):
        if len(self.b) != len(self.c):
            raise SpecError("intersection array halves have different lengths")
        if not self.b:
            return
        if self.c[0] != 1:
            raise SpecError("c_1 must be 1")
        if any(x < 0 for x in self.b + self.c):
            raise SpecError("intersection numbers must be non-negative")

    @property
    def d(self) -> int:
        return len(self.b)

    @property
    def k(self) -> int:
        return self.b[0] if self.b else 0

    def b_at(self, i: int) -> int:
        return self.b[i] if 0 <= i < self.d else 0

    def c_at(self, i: int) -> int:
        return self.c[i - 1] if 1 <= i <= self.d else (0 if i == 0 else 0)

    def a_at(self, i: int) -> int:
        return self.k - self.b_at(i) - self.c_at(i)

    @property
    def a(self) -> Tuple[int, ...]:
        return tuple(self.a_at(i) for i in range(1, self.d + 1))

    def class_sizes(self) -> Tuple[int, ...]:
        """k_0, k_1, ..., k_d from k_{i+1} = k_i b_i / c_{i+1}; exact."""
        ks = [1]
        for i in range(self.d):
            num = ks[-1] * self.b[i]
            den = self.c[i]
            if num % den != 0:
                raise InvariantViolation(
                    "class sizes are not integral",
                    witness={"b": list(self.b), "c": list(self.c), "i": i, "numerator": num, "denominator": den},
                )
            ks.append(num // den)
        return tuple(ks)

    @property
    def is_bipartite(self) -> bool:
        return all(self.a_at(i) == 0 for i in range(1, self.d + 1))

    @property
    def is_antipodal(self) -> bool:
        if self.d < 2:
            return False
        half = self.d // 2
        return all(self.b_at(i) == self.c_at(self.d - i) for i in range(self.d) if i != half)

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.b)) + ";" + ",".join(map(str, self.c)) + "}"

    def to_dict(self) -> dict:
        return {"b": list(self.b), "c": list(self.c), "a": list(self.a), "k": list(self.class_sizes())}


@dataclass(frozen=True)
class DRGCheck:
    ok: bool
    array: Optional[IntersectionArray]
    classes: Tuple[Tuple[int, ...], ...]  # BFS layers from the identity, index tuples
    witness: Optional[dict] = None


def check_distance_regular(graph: CayleyGraph) -> DRGCheck:
    """Exact test: for each layer i the convolution of the layer indicator
    with the connection indicator must be constant on the classes at
    distance i-1, i, i+1 and zero elsewhere.  Computed once per distinct
    (group, connection set) and then shared."""
    return _check(graph.group, tuple(graph.connection_indices().tolist()))


@ft.lru_cache(maxsize=DRG_CACHE_SIZE)
def _check(group: AbelianGroup, connection: Tuple[int, ...]) -> DRGCheck:
    # BFS and the intersection numbers come from the same products: column
    # i of counts is A @ ind_i = |N(t) & S_i|, summed over the columns of
    # the layer; its positive entries not yet seen are layer i + 1.
    n = group.order
    s_vec = np.zeros(n, dtype=bool)
    s_vec[list(connection)] = True
    adj = s_vec[group.sub_table()]  # adj[t, g]: t - g in S
    seen = np.zeros(n, dtype=bool)
    seen[0] = True  # index 0 is the identity
    layers = [np.zeros(1, dtype=np.intp)]
    counts = []
    while layers[-1].size:
        count = adj[:, layers[-1]].sum(axis=1)
        counts.append(count)
        nxt = (count > 0) & ~seen
        seen |= nxt
        layers.append(np.flatnonzero(nxt))
    layers.pop()
    if not seen.all():
        raise NotConnectedError("connection set does not generate the group")
    classes = tuple(tuple(x.tolist()) for x in layers)
    d = len(classes) - 1
    # lo[i, j] / hi[i, j]: least / greatest count towards layer i on class j
    rows = np.stack(counts, axis=1)[np.concatenate(layers)]
    starts = np.cumsum([0] + [x.size for x in layers[:-1]])
    lo = np.minimum.reduceat(rows, starts, axis=0).T
    hi = np.maximum.reduceat(rows, starts, axis=0).T
    idx = np.arange(d + 1)
    far = np.abs(idx[:, None] - idx[None, :]) > 1
    bad = np.argwhere((lo != hi) | (far & (hi != 0)))
    if bad.size:
        i, j = (int(x) for x in bad[0])
        if lo[i, j] != hi[i, j]:
            witness = {"layer": i, "class": j, "min": int(lo[i, j]), "max": int(hi[i, j])}
        else:
            witness = {"layer": i, "class": j, "nonzero": int(hi[i, j])}
        return DRGCheck(False, None, classes, witness)
    # b_i = hi[i + 1, i], c_{i+1} = hi[i, i + 1]
    arr = IntersectionArray(tuple(np.diagonal(hi, -1).tolist()), tuple(np.diagonal(hi, 1).tolist()))
    where = {"group": list(group.moduli), "connection": list(connection)}
    sizes = arr.class_sizes()
    layer_sizes = [len(cls) for cls in classes]
    if list(sizes) != layer_sizes or sum(sizes) != n:
        raise InvariantViolation(
            "intersection array inconsistent with layer sizes",
            witness={**where, "class_sizes": list(sizes), "layer_sizes": layer_sizes},
        )
    for i in range(d):
        if sizes[i] * arr.b[i] != sizes[i + 1] * arr.c[i]:
            raise InvariantViolation(
                "k_i b_i != k_{i+1} c_{i+1}",
                witness={**where, "i": i, "left": sizes[i] * arr.b[i], "right": sizes[i + 1] * arr.c[i]},
            )
    return DRGCheck(True, arr, classes)


# ---------------------------------------------------------------------------
# spectrum


@dataclass(frozen=True)
class Eigensystem:
    group: AbelianGroup
    values: Tuple[CyclotomicInteger, ...]  # descending
    numerics: Tuple[float, ...]
    multiplicities: Tuple[int, ...]
    level_sets: Tuple[Tuple[int, ...], ...]  # character indices per eigenvalue

    @property
    def count(self) -> int:
        return len(self.values)

    def to_dict(self) -> dict:
        return {
            "eigenvalues": [
                {"value_exact": repr(v), "value_numeric": x, "multiplicity": m}
                for v, x, m in zip(self.values, self.numerics, self.multiplicities)
            ]
        }


def spectrum(graph: CayleyGraph, dps: int = 40) -> Eigensystem:
    """Exact eigenvalues chi_g(S) grouped by cyclotomic equality; the
    descending order is fixed numerically behind a separation gate.
    dps outside [MIN_DPS, MAX_DPS] is refused."""
    if not MIN_DPS <= dps <= MAX_DPS:
        raise SpecError(f"precision {dps} outside [{MIN_DPS}, {MAX_DPS}] decimal digits")
    return _spectrum(graph.group, tuple(graph.connection_indices().tolist()), dps)


def _spectrum(group: AbelianGroup, connection: Tuple[int, ...], dps: int) -> Eigensystem:
    m = group.exponent
    where = {"group": list(group.moduli), "connection": list(connection)}
    keys, label = distinct_rows(character_values(group, [connection])[:, 0])
    counts = np.bincount(label, minlength=len(keys))
    # a real value is fixed by complex conjugation, zeta^i -> zeta^-i
    conjugate = np.zeros((len(keys), m), dtype=keys.dtype)
    conjugate[:, -np.arange(keys.shape[1]) % m] = keys
    unreal = np.flatnonzero((reduce_root_counts(conjugate, m) != keys).any(axis=1))
    if unreal.size:
        raise InvariantViolation(
            "eigenvalue of an inverse-closed set must be real",
            witness={**where, "value": repr(CyclotomicInteger(m, keys[unreal[0]].tolist()))},
        )
    rows = keys.tolist()
    order, numerics = _numeric_order(m, rows, dps, where)
    _eigensystem_invariants(group, len(connection), keys, counts, where)
    values = tuple(CyclotomicInteger(m, rows[u]) for u in order)
    mults = tuple(int(counts[u]) for u in order)
    connected = _closure(group, connection).size == group.order
    if connected and (mults[0] != 1 or values[0] != len(connection)):
        raise InvariantViolation(
            "top eigenvalue of a connected graph must be the degree, simple",
            witness={**where, "top": repr(values[0]), "multiplicity": mults[0]},
        )
    flipped = np.flatnonzero(label[group.neg_table()] != label)
    if flipped.size:
        raise InvariantViolation(
            "eigenvalue level sets must be inverse closed",
            witness={**where, "character": int(flipped[0]), "inverse": int(group.neg_table()[flipped[0]])},
        )
    members = np.split(np.argsort(label, kind="stable"), np.cumsum(counts)[:-1])
    levels = tuple(tuple(members[u].tolist()) for u in order)
    return Eigensystem(group, values, tuple(numerics), mults, levels)


def _numeric_order(m: int, rows: List[List[int]], dps: int, where: dict) -> Tuple[List[int], List[float]]:
    """Descending order of the values with coordinates rows at conductor
    m, and their floats, behind the imaginary-part and separation gates.
    A rational integer k sorts as itself and renders as float(k), equal
    to float(mpf(k)) as |k| <= |G| < 2^53; mpmath is imported and run
    only when some value is irrational.  where opens every witness."""
    irrational = any(any(row[1:]) for row in rows)
    if irrational:
        import mpmath

    entries = []
    with mpmath.workdps(dps) if irrational else contextlib.nullcontext():
        gate = mpmath.mpf(10) ** (-dps // 2) if irrational else None
        for u, row in enumerate(rows):
            if any(row[1:]):
                z = CyclotomicInteger(m, row).numeric(dps)
                if abs(z.imag) > gate:
                    raise InvariantViolation(
                        "real eigenvalue evaluated with a large imaginary part",
                        witness={**where, "value": repr(CyclotomicInteger(m, row)), "imag": float(z.imag)},
                    )
                entries.append((mpmath.mpf(z.real), u))
            else:
                entries.append((row[0], u))
        entries.sort(key=lambda e: e[0], reverse=True)
        for (x1, u1), (x2, u2) in zip(entries, entries[1:]):
            if abs(x1 - x2) < EIGENVALUE_GATE:
                v1, v2 = CyclotomicInteger(m, rows[u1]), CyclotomicInteger(m, rows[u2])
                raise PrecisionError(f"eigenvalues {v1!r} and {v2!r} separated by less than {EIGENVALUE_GATE}")
    return [u for _, u in entries], [float(x) for x, _ in entries]


def _eigensystem_invariants(
    group: AbelianGroup, degree: int, keys: np.ndarray, mults: np.ndarray, where: Optional[dict] = None
) -> None:
    """The trace identities sum m_i theta_i = 0 and sum m_i theta_i^2 =
    k|G| on the power-basis coordinates keys[i] of the distinct values.
    where opens every witness; it defaults to the group moduli."""
    n, m = group.order, group.exponent
    where = where or {"group": list(group.moduli)}
    if int(mults.sum()) != n:
        raise InvariantViolation(
            "eigenvalue multiplicities must sum to the order",
            witness={**where, "multiplicities": int(mults.sum()), "order": n},
        )
    trace = mults @ keys
    if trace.any():
        raise InvariantViolation(
            "eigenvalues must sum to zero (trace)", witness={**where, "trace": [int(x) for x in trace]}
        )
    # theta^2 has sum_{i+j=t} theta_i theta_j at x^t: weight the outer
    # products by multiplicity, then fold the antidiagonals by skewing
    # row i i places right (rows of length 2phi+1 read back as 2phi)
    phi = keys.shape[1]
    keys = keys.astype(exact_dtype(int(np.abs(keys).max(initial=0)) ** 2 * n * phi, keys), copy=False)
    # not keys.T @ ...: numpy has no integer BLAS, and its int64 matmul
    # loop is about 7x slower than einsum's on long cycles (Z_2039)
    outer = np.einsum("ia,ib->ab", keys, keys * mults[:, None])
    skew = np.zeros((phi, 2 * phi + 1), dtype=outer.dtype)
    skew[:, :phi] = outer
    folded = skew.ravel()[: 2 * phi * phi].reshape(phi, 2 * phi).sum(axis=0)[: 2 * phi - 1]
    counts = np.zeros(m, dtype=folded.dtype)
    np.add.at(counts, np.arange(2 * phi - 1) % m, folded)  # zeta^m = 1
    square = reduce_root_counts(counts, m)
    if square[0] != degree * n or square[1:].any():
        raise InvariantViolation(
            "sum of squared eigenvalues must equal k|G|",
            witness={**where, "square": [int(x) for x in square], "expected": degree * n},
        )


# ---------------------------------------------------------------------------
# imprimitivity


@dataclass(frozen=True)
class Imprimitivity:
    bipartite: bool
    antipodal: bool
    primitive: bool  # d <= 1, or neither bipartite nor antipodal
    antipodal_class: Optional[Subgroup]  # H = S_0 u S_d when antipodal


def imprimitivity(graph: CayleyGraph, check: Optional[DRGCheck] = None) -> Imprimitivity:
    if check is None:
        check = check_distance_regular(graph)
    if not check.ok:
        raise SpecError("imprimitivity analysis requires a distance-regular graph")
    arr = check.array
    bip, anti = arr.is_bipartite, arr.is_antipodal
    h_sub = None
    if anti:
        antipodal_class = sorted(check.classes[0] + check.classes[-1])
        closure = _closure(graph.group, antipodal_class)
        if closure.size != len(antipodal_class):
            raise InvariantViolation(
                "antipodal class S_0 u S_d is not a subgroup",
                witness={
                    "group": list(graph.group.moduli),
                    "connection": graph.connection_indices().tolist(),
                    "antipodal_class": antipodal_class,
                },
            )
        h_sub = Subgroup(graph.group, tuple(closure.tolist()))
    return Imprimitivity(bip, anti, arr.d <= 1 or not (bip or anti), h_sub)


# ---------------------------------------------------------------------------
# family detection


@dataclass(frozen=True)
class FamilyLabel:
    kind: str
    params: Tuple[Tuple[str, int], ...] = ()

    def __str__(self) -> str:
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={v}" for k, v in self.params)
        return f"{self.kind}({inner})"

    def to_dict(self) -> dict:
        return {"family": self.kind, "parameters": dict(self.params)}


def detect_family(graph: CayleyGraph, check: Optional[DRGCheck] = None) -> FamilyLabel:
    """Label a distance-regular Cayley graph by structural family."""
    if check is None:
        check = check_distance_regular(graph)
    if not check.ok:
        raise SpecError("family detection requires a distance-regular graph")
    g = graph.group
    n = g.order
    conn = graph.connection
    if len(conn) == n - 1:
        return FamilyLabel("complete", (("n", n),))
    # the complement holds the identity; a nonempty finite set closed
    # under + is a subgroup
    outside = graph.indicator() == 0
    comp = np.flatnonzero(outside)
    if 1 < comp.size < n and outside[g.add_table()[np.ix_(comp, comp)]].all():
        return FamilyLabel("multipartite", (("t", n // comp.size), ("m", comp.size)))
    arr = check.array
    if arr.is_bipartite and arr.is_antipodal and arr.d == 3 and len(check.classes[3]) == 1:
        return FamilyLabel("crown", (("m", n // 2),))
    if graph.degree == 2 and n >= 3:
        return FamilyLabel("cycle", (("n", n),))
    if len(g.moduli) == 2 and g.moduli[0] == g.moduli[1] and g.moduli[0] != 2 and is_prime(g.moduli[0]):
        # the maximal subgroups of Z_p + Z_p are its p + 1 order-p lines
        p = g.moduli[0]
        closed = {0, *graph.connection_indices().tolist()}
        full = [h.indices for h in maximal_subgroups(g) if closed.issuperset(h.indices)]
        if {i for h in full for i in h} == closed and 2 <= len(full) <= p - 1:
            return FamilyLabel("union-of-order-p-subgroups", (("p", p), ("r", len(full))))
    if is_prime(n) and n % 4 == 1:
        residues = frozenset(g.element([pow(x, 2, n)]) for x in range(1, n))
        nonres = frozenset(e for e in g.elements() if not e.is_zero and e not in residues)
        if conn == residues or conn == nonres:
            return FamilyLabel("paley", (("n", n),))
    return FamilyLabel("none")


# ---------------------------------------------------------------------------
# exports


def export_graph6(graph: CayleyGraph) -> str:
    """Standard graph6 string of the adjacency matrix in element order."""
    A = graph.adjacency()
    n = graph.order
    return encode_graph6(A, n)


def encode_graph6(A: np.ndarray, n: int) -> str:
    """The upper triangle column by column, A[0,1], A[0,2], A[1,2], ...
    (the lower triangle of A.T row by row), six bits to a character."""
    bits = np.asarray(A).T[np.tril_indices(n, -1)]
    bits = np.concatenate([bits, np.zeros(-bits.size % 6, dtype=bits.dtype)]).reshape(-1, 6)
    chunks = 63 + bits @ (1 << np.arange(5, -1, -1))
    return _graph6_size(n) + chunks.astype(np.uint8).tobytes().decode("ascii")


def _graph6_size(n: int) -> str:
    if n <= 62:
        return chr(63 + n)
    if n <= 258047:
        return "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    raise SpecError("graph too large for graph6")
