"""Schur rings over abelian groups, duality and Krein parameters.

A Schur ring is presented by a partition of the group whose indicator
sums span a subring of the integer group algebra.  The dual ring lives
on character-value equivalence classes; its structure constants are the
Krein parameters of the original ring, kept in exact integers
throughout.  The Fraction-arithmetic eigenmatrix route that cross-checks
the Krein tensor for integral schemes is test-side code in
tests/reference.py.
"""

from __future__ import annotations

import functools as ft
import itertools as it
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .algebra import character_values, distinct_rows
from .errors import InvariantViolation, SpecError
from .graphs import CayleyGraph, DRGCheck, check_distance_regular
from .groups import AbelianGroup, GroupElement, _closure

DUAL_CACHE_SIZE = 64  # dual rings kept by dual_schur_ring
RING_CACHE_SIZE = 8  # distance modules and Q-orderings kept; one graph's calls come back to back
MAX_TENSOR_ENTRIES = 1 << 22  # r^3 structure constants of one ring


@dataclass(frozen=True)
class SchurRing:
    group: AbelianGroup
    classes: Tuple[Tuple[int, ...], ...]  # index tuples, classes[0] = {0}
    array: np.ndarray = field(compare=False, repr=False)  # array[i, j, k] = p_{ij}^k, read-only int64

    def __post_init__(self):
        self.array.flags.writeable = False

    @property
    def rank(self) -> int:
        return len(self.classes)

    @property
    def d(self) -> int:
        return self.rank - 1

    def class_sizes(self) -> Tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    def class_elements(self, i: int) -> Tuple[GroupElement, ...]:
        els = self.group.elements()
        return tuple(els[j] for j in self.classes[i])

    @property
    def is_symmetric(self) -> bool:
        _, label = _class_labels(self.group.order, self.classes)
        return bool((label[self.group.neg_table()] == label).all())

    @property
    def is_primitive(self) -> bool:
        return all(_closure(self.group, cls).size == self.group.order for cls in self.classes[1:])

    def partition_key(self) -> frozenset:
        return frozenset(frozenset(c) for c in self.classes)

    def to_dict(self) -> dict:
        return {
            "group": str(self.group),
            "classes": [list(c) for c in self.classes],
            "p": self.array.tolist(),
        }


@dataclass(frozen=True)
class SchurCheck:
    ok: bool
    ring: Optional[SchurRing]
    witness: Optional[dict] = None


def _class_labels(n: int, classes: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """(order, label) for classes that partition range(n): the elements
    class after class, and label[g] = the index of the class holding g."""
    order = np.fromiter(it.chain.from_iterable(classes), dtype=np.intp, count=n)
    label = np.empty(n, dtype=np.intp)
    label[order] = np.repeat(np.arange(len(classes)), [len(cls) for cls in classes])
    return order, label


def structure_constants(group: AbelianGroup, classes: Sequence[Sequence[int]]) -> Tuple[np.ndarray, np.ndarray]:
    """(lo, hi), where lo[i, j, k] and hi[i, j, k] are the least and the
    greatest coefficient of N_i N_j on class k, for classes that
    partition the group.  The partition spans a subring iff lo == hi,
    and then hi[i, j, k] = p_{ij}^k.

    Every pair (t, g) adds one to (N_i N_j)[t] for i the class of g and
    j the class of t - g, so one gather of the subtraction table and one
    bincount give all products, with t counted at its position in the
    class-ordered element list; min/max reduceat over the class segments
    then reads off lo and hi.  Peak memory is one (n, n) and one
    (r, r, n) integer array.  Refused (SpecError) before anything is
    allocated when the tensor would have more than MAX_TENSOR_ENTRIES
    entries.
    """
    n = group.order
    r = len(classes)
    if r**3 > MAX_TENSOR_ENTRIES:
        raise SpecError(
            f"a rank-{r} ring has {r**3} structure constants, above the limit {MAX_TENSOR_ENTRIES}"
        )
    order, label = _class_labels(n, classes)
    sizes = [len(cls) for cls in classes]
    position = np.empty(n, dtype=np.intp)
    position[order] = np.arange(n, dtype=np.intp)
    key = label[group.sub_table()]  # key[t, g] = class of t - g
    key += label * r
    key *= n
    key += position[:, None]
    conv = np.bincount(key.ravel(), minlength=r * r * n).reshape(r, r, n)
    starts = np.cumsum([0] + sizes[:-1])
    return np.minimum.reduceat(conv, starts, axis=2), np.maximum.reduceat(conv, starts, axis=2)


def verify_schur_ring(group: AbelianGroup, partition: Sequence[Sequence[int]]) -> SchurCheck:
    """Check the three Schur-ring axioms by exact convolution and return
    the ring with its full structure tensor, or the first violation in
    (i, j, k) order."""
    classes = [tuple(sorted(int(x) for x in cls)) for cls in partition]
    flat = sorted(x for cls in classes for x in cls)
    if flat != list(range(group.order)) or not all(classes):
        return SchurCheck(False, None, {"reason": "not a partition of the group"})
    zi = next(i for i, cls in enumerate(classes) if 0 in cls)
    if classes[zi] != (0,):
        return SchurCheck(False, None, {"reason": "the identity class is not {0}"})
    classes.insert(0, classes.pop(zi))
    neg = group.neg_table()
    class_sets = [set(cls) for cls in classes]
    for i, cls in enumerate(classes):
        image = {int(neg[x]) for x in cls}
        if image not in class_sets:
            return SchurCheck(False, None, {"reason": "inverse image of a class is not a class", "class": i})
    lo, hi = structure_constants(group, classes)
    bad = np.argwhere(lo != hi)
    if bad.size:
        i, j, k = (int(x) for x in bad[0])
        return SchurCheck(
            False, None, {"i": i, "j": j, "k": k, "min": int(lo[i, j, k]), "max": int(hi[i, j, k])}
        )
    return SchurCheck(True, SchurRing(group, tuple(classes), hi))


def distance_module(graph: CayleyGraph, check: Optional[DRGCheck] = None) -> SchurRing:
    """Schur ring on the distance partition; exists iff the graph is
    distance-regular.  Computed once per distinct (group, partition)."""
    if check is None:
        check = check_distance_regular(graph)
    if not check.ok:
        raise SpecError(f"graph is not distance-regular: {check.witness}")
    return _distance_module(graph.group, check.classes)


@ft.lru_cache(maxsize=RING_CACHE_SIZE)
def _distance_module(group: AbelianGroup, classes: Tuple[Tuple[int, ...], ...]) -> SchurRing:
    res = verify_schur_ring(group, classes)
    if not res.ok:
        raise InvariantViolation(
            f"distance partition of a DRG failed the Schur axioms: {res.witness}", witness=res.witness
        )
    return res.ring


def dual_schur_ring(ring: SchurRing) -> SchurRing:
    """Schur ring on character-value classes; rank must be preserved.
    Computed once per distinct (group, classes) and then shared."""
    return _dual_ring(ring.group, ring.classes)


@ft.lru_cache(maxsize=DUAL_CACHE_SIZE)
def _dual_ring(group: AbelianGroup, classes: Tuple[Tuple[int, ...], ...]) -> SchurRing:
    keys, label = distinct_rows(character_values(group, classes).reshape(group.order, -1))
    if len(keys) != len(classes):
        raise InvariantViolation(
            f"dual rank {len(keys)} differs from primal rank {len(classes)}",
            witness={"rank": len(classes), "dual_rank": len(keys)},
        )
    members: List[List[int]] = [[] for _ in keys]
    for gi, u in enumerate(label.tolist()):
        members[u].append(gi)
    dual_classes = sorted(
        (tuple(v) for v in members),
        key=lambda cls: (0 not in cls, len(cls), cls),
    )
    res = verify_schur_ring(group, dual_classes)
    if not res.ok:
        raise InvariantViolation(
            f"character classes failed the Schur axioms: {res.witness}",
            witness={"classes": [list(c) for c in dual_classes], **res.witness},
        )
    return res.ring


@dataclass(frozen=True, eq=False)
class KreinTensor:
    array: np.ndarray  # array[i, j, k] = q_{ij}^k, read-only int64

    @property
    def rank(self) -> int:
        return len(self.array)

    def to_dict(self) -> dict:
        return {"q": self.array.tolist()}


def krein_parameters(ring: SchurRing) -> KreinTensor:
    """Krein parameters as the structure constants of the dual ring;
    non-negativity and integrality are asserted, not assumed."""
    if not ring.is_symmetric:
        raise SpecError("Krein parameters require a symmetric Schur ring")
    dual = dual_schur_ring(ring)
    _assert_krein_conditions(dual)
    return KreinTensor(dual.array)


def _assert_krein_conditions(dual: SchurRing) -> None:
    bad = np.argwhere(dual.array < 0)
    if bad.size:
        i, j, k = (int(x) for x in bad[0])
        raise InvariantViolation(
            "negative Krein parameter", witness={"i": i, "j": j, "k": k, "q": int(dual.array[i, j, k])}
        )


# ---------------------------------------------------------------------------
# polynomial orderings and dual graphs


def _ordering_ok(tensor: np.ndarray, tau: Sequence[int]) -> bool:
    """Under tau, entries vanish above the triangle (k > i + j) and the
    entries on it (k = i + j <= d) do not."""
    t = tensor[np.ix_(tau, tau, tau)]
    idx = np.arange(len(tau))
    diag = idx[:, None] + idx[None, :]
    i, j = np.nonzero(diag < len(tau))
    return not t[idx > diag[:, :, None]].any() and bool(t[i, j, diag[i, j]].all())


def _polynomial_orderings(tensor: np.ndarray) -> List[Tuple[int, ...]]:
    """Orderings passing _ordering_ok, found by walking the chain each
    first class forces: in a valid ordering the only class of tensor
    row (tau[1], tau[i]) not yet placed must be tau[i+1], so candidates
    grow one forced step at a time and dead ends drop out early.  The
    full triangle condition is still checked on every completed chain."""
    d = len(tensor) - 1
    if d == 0:
        return [(0,)]
    nonzero = (tensor != 0).tolist()
    out = []
    for t1 in range(1, d + 1):
        tau = [0, t1]
        while len(tau) <= d:
            seen = set(tau)
            nxt = [k for k in range(d + 1) if nonzero[t1][tau[-1]][k] and k not in seen]
            if len(nxt) != 1:
                break
            tau.append(nxt[0])
        if len(tau) == d + 1 and _ordering_ok(tensor, tau):
            out.append(tuple(tau))
    return out


def q_polynomial_orderings(ring: SchurRing) -> List[Tuple[int, ...]]:
    """All dual-class orderings satisfying the Q-polynomial conditions
    (triangle vanishing above i+j, non-vanishing at i+j).  Searched once
    per distinct (group, classes)."""
    if not ring.is_symmetric:
        raise SpecError("Q-polynomial analysis requires a symmetric Schur ring")
    return list(_q_orderings(ring.group, ring.classes))


@ft.lru_cache(maxsize=RING_CACHE_SIZE)
def _q_orderings(group: AbelianGroup, classes: Tuple[Tuple[int, ...], ...]) -> Tuple[Tuple[int, ...], ...]:
    dual = _dual_ring(group, classes)
    _assert_krein_conditions(dual)
    return tuple(_polynomial_orderings(dual.array))


def dual_graph(graph: CayleyGraph, tau: Sequence[int], check: Optional[DRGCheck] = None) -> CayleyGraph:
    """Cay(G, level set of tau(1)); re-verified distance-regular with the
    dual classes as distance classes and the Krein tensor as structure."""
    ring = distance_module(graph, check)
    if ring.d == 0:
        raise SpecError("the one-class scheme has no dual graph")
    taus = q_polynomial_orderings(ring)
    tau = tuple(tau)
    if tau not in taus:
        raise SpecError(f"{tau} is not a Q-polynomial ordering of this graph")
    dual = dual_schur_ring(ring)
    els = graph.group.elements()
    conn = [els[i] for i in dual.classes[tau[1]]]
    dgraph = CayleyGraph(graph.group, conn)
    dcheck = check_distance_regular(dgraph)
    where = {"ordering": list(tau)}
    if not dcheck.ok:
        raise InvariantViolation(
            "dual graph failed the distance-regularity recheck", witness={**where, **dcheck.witness}
        )
    if dcheck.array.d != ring.d:
        raise InvariantViolation(
            "dual graph diameter differs from the scheme rank",
            witness={**where, "diameter": dcheck.array.d, "expected": ring.d},
        )
    for i in range(ring.d + 1):
        if set(dcheck.classes[i]) != set(dual.classes[tau[i]]):
            raise InvariantViolation(
                "dual graph distance classes differ from the dual classes",
                witness={
                    **where,
                    "distance": i,
                    "expected": sorted(dual.classes[tau[i]]),
                    "found": sorted(dcheck.classes[i]),
                },
            )
    q = dual.array[np.ix_(tau, tau, tau)]
    p = distance_module(dgraph, dcheck).array
    bad = np.argwhere(p != q)
    if bad.size:
        i, j, k = (int(x) for x in bad[0])
        raise InvariantViolation(
            "dual graph intersection numbers differ from the Krein tensor",
            witness={**where, "i": i, "j": j, "k": k, "expected": int(q[i, j, k]), "found": int(p[i, j, k])},
        )
    return dgraph
