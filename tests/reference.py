"""Test-side code for statements of the theory that the package does not
need.

Some tests check facts about distance-regular Cayley graphs and designs
through code that no command or classification path calls:
Smith-normal-form quotients and subgroups as groups, the antipodal,
halved and subgroup quotients of a graph, clique numbers and the
Delsarte bound, Fourier coefficients read off the package's character
table, the order condition on relative difference sets, the filters
that rule out monomial addition sets, Ma's coset decomposition and the
level-set certificates of antipodal covers.  It also holds oracles for
package code: every inverse-closed set, the line graph of a transversal
design, the atoms of a group, a graph6 decoder, the complete-multipartite
test and the connection-set validation on GroupElement sets, and the
value of a cyclotomic integer with every root of unity evaluated afresh.
It lives here, beside the tests that import it, and each piece is checked
there against brute force or a worked example.

It also holds the oracles that check the package from outside its own
code paths: the per-vertex-pair distance-regularity check and the
Fraction-arithmetic eigenmatrix route to the Krein parameters.  And it
holds the arithmetic the package never runs: the cyclotomic ring
operations, as a subclass of the package's value class (`to_ring` turns
a value the package built into one), integer group-algebra elements, and
element negation, multiples and orders.  The family constructions
(complete, complete multipartite, crown, cycle, Paley, transversal-design
line graphs) pair a graph with its predicted intersection array.
"""

from __future__ import annotations

import functools as ft
import itertools as it
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from drgcayley import cyclotomic
from drgcayley.algebra import character_table, character_values
from drgcayley.constructions import crown, td_line_graph
from drgcayley.cyclotomic import cyclotomic_polynomial, euler_phi, exact_dtype
from drgcayley.designs import is_polynomial_addition_set, is_relative_difference_set
from drgcayley.errors import InvariantViolation, NotConnectedError, PrecisionError, SpecError
from drgcayley.graphs import (
    CayleyGraph,
    DRGCheck,
    FamilyLabel,
    IntersectionArray,
    check_distance_regular,
    detect_family,
    imprimitivity,
    spectrum,
)
from drgcayley.groups import (
    AbelianGroup,
    GroupElement,
    Subgroup,
    format_element,
    generated_subgroup,
    is_prime,
    make_group,
)
from drgcayley.schur import SchurRing, dual_schur_ring


# ---------------------------------------------------------------------------
# cyclotomic ring arithmetic


@ft.lru_cache(maxsize=16)
def reference_power_table(m: int) -> np.ndarray:
    """Row e holds the power-basis coordinates of x^e mod Phi_m, for
    e up to max(m, 2*phi(m)-1) exclusive (covers root exponents and
    products of two reduced elements), built row by row at conductor m
    itself: int64 when every entry is below 2^31, Python integers
    otherwise."""
    phi = euler_phi(m)
    poly = np.array(cyclotomic_polynomial(m)[:phi], dtype=object)
    rows = np.zeros((max(m, 2 * phi - 1), phi), dtype=object)
    rows[0, 0] = 1
    for e in range(1, len(rows)):
        # multiply by x: shift, then fold the overflow via x^phi = -(low terms)
        top = rows[e - 1, -1]
        rows[e, 1:] = rows[e - 1, :-1]
        rows[e] -= top * poly
    if max(rows.max(initial=0), -rows.min(initial=0)) < 2**31:
        rows = rows.astype(np.int64)
    return rows


def reduce_by_full_table(counts: np.ndarray, m: int) -> np.ndarray:
    """sum_e counts[..., e] * zeta_m^e in the power basis, every count
    through the full table at conductor m, in Python integers."""
    return np.asarray(counts, dtype=object) @ reference_power_table(m)[:m].astype(object)


class CyclotomicInteger(cyclotomic.CyclotomicInteger):
    """The package's cyclotomic integer with the ring operations.  Mixed
    conductors are combined, and compared for equality, by lifting to the
    lcm."""

    __slots__ = ()

    @classmethod
    def from_int(cls, k: int) -> "CyclotomicInteger":
        return cls(1, (int(k),))

    @classmethod
    def from_root_power(cls, m: int, e: int) -> "CyclotomicInteger":
        """zeta_m ** e."""
        return cls(m, tuple(int(v) for v in reference_power_table(m)[e % m]))

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
        if math.gcd(t, m) != 1:
            raise SpecError(f"galois exponent {t} not coprime to conductor {m}")
        counts = [0] * m
        for i, a in enumerate(self.coeffs):
            if a:
                counts[(i * t) % m] += a
        return CyclotomicInteger.from_root_counts(m, counts)

    def conjugate(self) -> "CyclotomicInteger":
        return self.galois(-1 % self.conductor) if self.conductor > 1 else self

    def as_int(self) -> int:
        if not self.is_rational_integer:
            raise SpecError(f"{self} is not a rational integer")
        return self.coeffs[0]

    def _pair(self, other: "CyclotomicInteger") -> Tuple["CyclotomicInteger", "CyclotomicInteger"]:
        m = math.lcm(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    def __add__(self, other) -> "CyclotomicInteger":
        a, b = self._pair(to_ring(other))
        return CyclotomicInteger(a.conductor, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __radd__(self, other) -> "CyclotomicInteger":
        return self.__add__(other)

    def __sub__(self, other) -> "CyclotomicInteger":
        a, b = self._pair(to_ring(other))
        return CyclotomicInteger(a.conductor, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __rsub__(self, other) -> "CyclotomicInteger":
        return to_ring(other).__sub__(self)

    def __neg__(self) -> "CyclotomicInteger":
        return CyclotomicInteger(self.conductor, tuple(-c for c in self.coeffs))

    def __mul__(self, other) -> "CyclotomicInteger":
        if isinstance(other, int):
            return CyclotomicInteger(self.conductor, tuple(other * c for c in self.coeffs))
        a, b = self._pair(to_ring(other))
        m = a.conductor
        phi = euler_phi(m)
        amax = max((abs(c) for c in a.coeffs), default=0)
        bmax = max((abs(c) for c in b.coeffs), default=0)
        tab = reference_power_table(m)[: 2 * phi - 1]
        # each convolution entry is below phi * amax * bmax
        dtype = exact_dtype(phi * amax * bmax * int(np.abs(tab).sum(axis=0).max()) * (2 * phi), tab)
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

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return super().__eq__(other)
        if not isinstance(other, cyclotomic.CyclotomicInteger):
            return NotImplemented
        a, b = self._pair(to_ring(other))
        return a.coeffs == b.coeffs


def to_ring(value) -> CyclotomicInteger:
    """An int, or a cyclotomic integer the package built, as a value with
    the ring operations."""
    if isinstance(value, CyclotomicInteger):
        return value
    if isinstance(value, cyclotomic.CyclotomicInteger):
        return CyclotomicInteger(value.conductor, value.coeffs)
    if isinstance(value, (int, np.integer)):
        return CyclotomicInteger.from_int(int(value))
    raise SpecError(f"cannot interpret {value!r} as a cyclotomic integer")


def zeta(m: int, e: int = 1) -> CyclotomicInteger:
    return CyclotomicInteger.from_root_power(m, e)


def numeric_direct(value: cyclotomic.CyclotomicInteger, dps: int = 40):
    """Complex value of a cyclotomic integer at dps digits, evaluating
    every root of unity afresh: sum_k a_k * e^(2 pi i k / m), each root
    by the expression the package's root table caches."""
    import mpmath

    with mpmath.workdps(dps):
        m = value.conductor
        total = mpmath.mpc(0)
        for i, a in enumerate(value.coeffs):
            if a:
                total += a * mpmath.e ** (2j * mpmath.pi * i / m)
        return total


# ---------------------------------------------------------------------------
# integer group-algebra elements


class AlgebraElement:
    """sum_g coeffs[g] * g in the integral group ring Z[G]: an integer
    coefficient vector indexed by group elements in index order, and
    multiplication is convolution over the group."""

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
# element arithmetic beyond +, coordinate by coordinate


def neg(g: GroupElement) -> GroupElement:
    return g.group.element([-c for c in g.coords])


def scale(k: int, g: GroupElement) -> GroupElement:
    return g.group.element([k * c for c in g.coords])


def element_order(g: GroupElement) -> int:
    """lcm over the coordinates of n_i / gcd(c_i, n_i)."""
    return math.lcm(*(n // math.gcd(c, n) for c, n in zip(g.coords, g.group.moduli)))


# ---------------------------------------------------------------------------
# family constructions with predicted intersection arrays


@dataclass(frozen=True)
class Construction:
    graph: CayleyGraph
    predicted: IntersectionArray

    @property
    def label(self) -> FamilyLabel:
        return detect_family(self.graph)

    def verify(self) -> bool:
        res = check_distance_regular(self.graph)
        return res.ok and res.array == self.predicted


def srg_array(k: int, lam: int, mu: int) -> IntersectionArray:
    """Intersection array of a strongly regular graph (diameter 2)."""
    return IntersectionArray((k, k - lam - 1), (1, mu))


def complete_graph(group: AbelianGroup) -> Construction:
    n = group.order
    graph = CayleyGraph(group, [e for e in group.elements() if not e.is_zero])
    arr = IntersectionArray((n - 1,), (1,)) if n > 1 else IntersectionArray((), ())
    return Construction(graph, arr)


def complete_multipartite(group: AbelianGroup, part: Subgroup) -> Construction:
    n = group.order
    if not 1 < part.order < n:
        raise SpecError("multipartite part must be a proper nontrivial subgroup")
    t, m = n // part.order, part.order
    graph = CayleyGraph(group, [e for e in group.elements() if e not in part.element_set()])
    return Construction(graph, srg_array((t - 1) * m, (t - 2) * m, (t - 1) * m))


def crown_construction(group: AbelianGroup, half: Subgroup, a: GroupElement) -> Construction:
    """The package's crown set, with the crown array {k,k-1,1; 1,k-1,k}, k = n/2 - 1."""
    k = group.order // 2 - 1
    graph = CayleyGraph(group, crown(group, half, a))
    return Construction(graph, IntersectionArray((k, k - 1, 1), (1, k - 1, k)))


def cycle(n: int) -> Construction:
    if n < 3:
        raise SpecError("cycle needs at least 3 vertices")
    group = make_group([n])
    graph = CayleyGraph(group, [group.element([1]), group.element([n - 1])])
    d = n // 2
    if n == 3:
        arr = IntersectionArray((2,), (1,))
    elif n % 2 == 0:
        arr = IntersectionArray((2,) + (1,) * (d - 1), (1,) * (d - 1) + (2,))
    else:
        arr = IntersectionArray((2,) + (1,) * (d - 1), (1,) * d)
    return Construction(graph, arr)


def td_construction(p: int, subgroups: Sequence[Subgroup]) -> Construction:
    """The package's union of r order-p subgroups, with the array of the
    complete graph (r = p + 1) or of an srg(r(p-1), p + r^2 - 3r, r^2 - r)."""
    r = len(subgroups)
    graph = CayleyGraph(make_group([p, p]), td_line_graph(p, subgroups))
    if r == p + 1:
        arr = IntersectionArray((p * p - 1,), (1,))
    else:
        arr = srg_array(r * (p - 1), p + r * r - 3 * r, r * r - r)
    return Construction(graph, arr)


def paley(q: int) -> Construction:
    if not is_prime(q) or q % 4 != 1:
        raise SpecError("Paley graph needs a prime congruent to 1 mod 4")
    group = make_group([q])
    graph = CayleyGraph(group, {group.element([pow(x, 2, q)]) for x in range(1, q)})
    return Construction(graph, srg_array((q - 1) // 2, (q - 5) // 4, (q - 1) // 4))


# ---------------------------------------------------------------------------
# independent oracles: per-pair distance regularity, eigenmatrix Krein route


def check_distance_regular_bruteforce(graph: CayleyGraph) -> DRGCheck:
    """Per-vertex-pair oracle: BFS from every vertex on the adjacency
    matrix, then verify c/a/b constancy over all pairs at each distance.
    Independent of the identity-based shortcut."""
    n = graph.order
    A = graph.adjacency().astype(bool)
    dist = np.full((n, n), -1, dtype=np.int64)
    for u in range(n):
        dist[u, u] = 0
        frontier = np.zeros(n, dtype=bool)
        frontier[u] = True
        seen = frontier.copy()
        level = 0
        while frontier.any():
            level += 1
            nxt = A[frontier].any(axis=0) & ~seen
            dist[u, nxt] = level
            seen |= nxt
            frontier = nxt
    if (dist < 0).any():
        return DRGCheck(False, None, None, {"disconnected": True})
    d = int(dist.max())
    if d == 0:
        return DRGCheck(True, IntersectionArray((), ()), None)
    Ai = A.astype(np.int64)
    where = {"group": list(graph.group.moduli), "connection": graph.connection_indices().tolist()}
    b = [0] * d
    c = [0] * d
    a_vals = [0] * d
    for i in range(1, d + 1):
        pairs = dist == i
        if not pairs.any():
            raise InvariantViolation(
                "distance value skipped", witness={**where, "distance": i, "diameter": d}
            )
        prev = (dist == i - 1).astype(np.int64) @ Ai  # [u,v] = |N(v) at dist i-1 from u|
        same = (dist == i).astype(np.int64) @ Ai
        nxt = (dist == i + 1).astype(np.int64) @ Ai
        for name, mat in (("c", prev), ("a", same), ("b", nxt)):
            vals = mat[pairs]
            if vals.min() != vals.max():
                return DRGCheck(False, None, None, {"distance": i, "parameter": name})
            if name == "c":
                c[i - 1] = int(vals[0])
            elif name == "b":
                if i <= d - 1:
                    b[i] = int(vals[0])
                elif int(vals[0]) != 0:
                    raise InvariantViolation(
                        "b_d must vanish", witness={**where, "distance": i, "b_d": int(vals[0])}
                    )
            else:
                a_vals[i - 1] = int(vals[0])
    b[0] = int(A.sum(axis=1)[0])
    deg = A.sum(axis=1)
    if deg.min() != deg.max():
        return DRGCheck(False, None, None, {"irregular": True})
    arr = IntersectionArray(tuple(b), tuple(c))
    for i in range(1, d + 1):
        if arr.a_at(i) != a_vals[i - 1]:
            return DRGCheck(False, None, None, {"distance": i, "parameter": "a-mismatch"})
    return DRGCheck(True, arr, None)


def krein_via_eigenmatrix(ring: SchurRing) -> Tuple[Tuple[Tuple[Fraction, ...], ...], ...]:
    """Independent rational route for integral symmetric schemes:
    q_{ij}^k = (m_i m_j / n) * sum_l P_il P_jl P_kl / k_l^2."""
    if not ring.is_symmetric:
        raise SpecError("eigenmatrix route requires a symmetric Schur ring")
    group = ring.group
    n = group.order
    dual = dual_schur_ring(ring)
    values = character_values(group, ring.classes)[[cls[0] for cls in dual.classes]]
    if np.any(values[:, :, 1:] != 0):
        raise SpecError("eigenmatrix route requires an integral scheme")
    P = [[Fraction(int(x)) for x in row] for row in values[:, :, 0].tolist()]
    r = ring.rank
    mults = [len(cls) for cls in dual.classes]
    sizes = [Fraction(len(cls)) for cls in ring.classes]
    out = []
    for i in range(r):
        plane = []
        for j in range(r):
            row = []
            for k in range(r):
                total = sum(P[i][l] * P[j][l] * P[k][l] / sizes[l] ** 2 for l in range(r))
                row.append(Fraction(mults[i] * mults[j], n) * total)
            plane.append(tuple(row))
        out.append(tuple(plane))
    return tuple(out)


# ---------------------------------------------------------------------------
# oracles for package code: connection sets, transversal designs, atoms, graph6


def multipartite_part(graph: CayleyGraph) -> Optional[Subgroup]:
    """The complement of S when it is a subgroup H with 1 < |H| < |G|
    (Cay(G, S) is then complete multipartite with the cosets of H as
    parts), else None; by GroupElement sets and subgroup closure."""
    g = graph.group
    complement = frozenset(e for e in g.elements() if e not in graph.connection)
    h = generated_subgroup(g, complement)
    return h if h.order == len(complement) and 1 < h.order < g.order else None


def connection_set_fault(group: AbelianGroup, connection: Iterable[GroupElement]) -> Optional[str]:
    """The SpecError message CayleyGraph(group, connection) raises, or
    None: elements of another group first, then the identity, then
    inverse closure, on GroupElement sets."""
    conn = frozenset(connection)
    for s in conn:
        try:
            group.index(s)
        except SpecError as exc:
            return str(exc)
    if any(s.is_zero for s in conn):
        return "connection set contains the identity"
    if any(neg(s) not in conn for s in conn):
        return "connection set is not inverse closed"
    return None


def inverse_closed_sets(group: AbelianGroup) -> Iterator[FrozenSet[GroupElement]]:
    """Every inverse-closed subset of G\\{0}, once each: the unions of {g,-g} pairs."""
    pairs = list(dict.fromkeys(frozenset((g, neg(g))) for g in group.elements() if not g.is_zero))
    for keep in it.product((False, True), repeat=len(pairs)):
        yield frozenset(e for k, pair in zip(keep, pairs) if k for e in pair)


def td_line_graph_edges(subgroups: Sequence[Subgroup]) -> FrozenSet[FrozenSet[int]]:
    """Line graph of the transversal design on the cosets of the given
    subgroups: line g (an element index) meets the coset g + H of each, and
    two lines are adjacent iff they share a point."""
    group = subgroups[0].group
    points = [{(j, frozenset(g + h for h in sub.elements)) for j, sub in enumerate(subgroups)}
              for g in group.elements()]
    return frozenset(frozenset((a, b)) for a, b in it.combinations(range(group.order), 2)
                     if points[a] & points[b])


def atoms(group: AbelianGroup) -> Tuple[Tuple[GroupElement, ...], ...]:
    """[g] = {x : <x> = <g>}, the atoms of the subsets closed under
    generated-subgroup equality, ordered by smallest member."""
    bucket: Dict[FrozenSet[GroupElement], List[GroupElement]] = {}
    for g in group.elements():
        bucket.setdefault(generated_subgroup(group, [g]).element_set(), []).append(g)
    parts = [tuple(sorted(v, key=lambda e: e.coords)) for v in bucket.values()]
    return tuple(sorted(parts, key=lambda part: part[0].coords))


def decode_graph6(text: str) -> np.ndarray:
    """Adjacency matrix of a graph6 string of at most 258047 vertices."""
    n, body = ord(text[0]) - 63, text[1:]
    if text.startswith("~"):
        n, body = 0, text[4:]
        for ch in text[1:4]:
            n = (n << 6) | (ord(ch) - 63)
    bits = [(ord(ch) - 63) >> (5 - i) & 1 for ch in body for i in range(6)]
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(pairs) or any(not 0 <= ord(ch) - 63 < 64 for ch in body):
        raise ValueError(f"malformed graph6 body for {n} vertices")
    A = np.zeros((n, n), dtype=np.int8)
    for (i, j), b in zip(pairs, bits):
        A[i, j] = A[j, i] = b
    return A


# ---------------------------------------------------------------------------
# Smith normal form, quotients and subgroups as groups


def smith_normal_form(mat: Sequence[Sequence[int]]) -> Tuple[List[List[int]], List[List[int]], List[List[int]]]:
    """Exact SNF over the integers: returns (S, U, V) with S = U @ A @ V,
    U and V unimodular, S diagonal with d_1 | d_2 | ...  Small dense inputs
    only; everything in Python ints."""
    A = [list(map(int, row)) for row in mat]
    rows = len(A)
    cols = len(A[0]) if rows else 0
    U = [[int(i == j) for j in range(rows)] for i in range(rows)]
    V = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in A:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, f):
        # row_dst += f * row_src
        A[dst] = [a + f * b for a, b in zip(A[dst], A[src])]
        U[dst] = [a + f * b for a, b in zip(U[dst], U[src])]

    def add_col(src, dst, f):
        for r in A:
            r[dst] += f * r[src]
        for r in V:
            r[dst] += f * r[src]

    t = 0
    while t < min(rows, cols):
        # smallest-|value| nonzero pivot in the trailing block
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if A[i][j] != 0 and (pivot is None or abs(A[i][j]) < abs(A[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        if pivot != (t, t):
            if pivot[0] != t:
                swap_rows(t, pivot[0])
            if pivot[1] != t:
                swap_cols(t, pivot[1])
        p = A[t][t]
        # reduce column and row t; any nonzero remainder is smaller than |p|,
        # so looping back to pivot selection terminates
        dirty = False
        for i in range(t + 1, rows):
            q = A[i][t] // p
            if q:
                add_row(t, i, -q)
            if A[i][t] != 0:
                dirty = True
        for j in range(t + 1, cols):
            q = A[t][j] // p
            if q:
                add_col(t, j, -q)
            if A[t][j] != 0:
                dirty = True
        if dirty:
            continue
        # divisibility: fold any non-multiple row into row t and retry
        bad = None
        for i in range(t + 1, rows):
            for j in range(t + 1, cols):
                if A[i][j] % p != 0:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            add_row(bad, t, 1)
            continue
        if A[t][t] < 0:
            A[t] = [-x for x in A[t]]
            U[t] = [-x for x in U[t]]
        t += 1
    return A, U, V


def _snf_check(A, S, U, V) -> None:
    # S == U A V, exact
    rows, cols = len(A), len(A[0]) if A else 0
    UA = [[sum(U[i][k] * A[k][j] for k in range(rows)) for j in range(cols)] for i in range(rows)]
    UAV = [[sum(UA[i][k] * V[k][j] for k in range(cols)) for j in range(cols)] for i in range(rows)]
    if UAV != S:
        raise InvariantViolation("Smith normal form bookkeeping failed")
    for i in range(rows):
        for j in range(cols):
            if i != j and S[i][j] != 0:
                raise InvariantViolation("Smith normal form is not diagonal")


def generating_set(sub: Subgroup) -> Tuple[GroupElement, ...]:
    """A small generating set of a subgroup, read off its elements: the
    elements in order of decreasing element order (then coordinates),
    each kept when it is not yet in the closure of those before it."""
    group = sub.group
    gens: List[GroupElement] = []
    covered = {group.zero}
    for cand in sorted(sub.elements, key=lambda e: (-element_order(e), e.coords)):
        if cand not in covered:
            gens.append(cand)
            covered = generated_subgroup(group, gens).element_set()
    return tuple(gens)


def quotient_group(group: AbelianGroup, sub: Subgroup) -> Tuple[AbelianGroup, Callable[[GroupElement], GroupElement]]:
    """Quotient G/H as an explicit product of cyclic groups plus the
    projection map.  Moduli come from the SNF of the relation lattice."""
    if sub.group != group:
        raise SpecError("subgroup does not belong to the given group")
    r = group.rank
    rel_cols: List[List[int]] = []
    for i, n in enumerate(group.moduli):
        col = [0] * r
        col[i] = n
        rel_cols.append(col)
    for g in generating_set(sub):
        rel_cols.append(list(g.coords))
    if r == 0:
        q = AbelianGroup([])
        return q, lambda g: q.zero
    A = [[rel_cols[j][i] for j in range(len(rel_cols))] for i in range(r)]
    S, U, V = smith_normal_form(A)
    _snf_check(A, S, U, V)
    diag = [S[i][i] for i in range(min(len(S), len(S[0])))]
    kept = [(i, d) for i, d in enumerate(diag) if d != 1]
    if any(d == 0 for _, d in kept):
        raise InvariantViolation("quotient relation lattice is not full rank")
    qmods = [d for _, d in kept]
    quotient = AbelianGroup(qmods)

    def project(g: GroupElement, _U=U, _kept=kept, _q=quotient, _g=group) -> GroupElement:
        _g.index(g)  # raises SpecError for an element of another group
        return _q.element([sum(_U[i][k] * g.coords[k] for k in range(_g.rank)) % d for i, d in _kept])

    if quotient.order * sub.order != group.order:
        raise InvariantViolation(
            f"quotient order {quotient.order} * subgroup order {sub.order} != {group.order}"
        )
    # projection must be a homomorphism with kernel exactly H
    kernel = [g for g in group.elements() if project(g).is_zero]
    if set(kernel) != sub.element_set():
        raise InvariantViolation("projection kernel differs from the subgroup")
    return quotient, project


def subgroup_as_group(sub: Subgroup) -> Tuple[AbelianGroup, Dict[GroupElement, GroupElement]]:
    """Realize a subgroup as a standalone product of cyclic groups.

    Returns (K, iso) with iso a bijection from subgroup elements onto K.
    """
    group = sub.group
    gens = list(generating_set(sub))
    if not gens:
        triv = AbelianGroup([])
        return triv, {group.zero: triv.zero}
    s = len(gens)
    # coefficient words: element -> a in Z^s with sum a_j gens_j = element
    words: Dict[GroupElement, Tuple[int, ...]] = {group.zero: (0,) * s}
    frontier = [group.zero]
    while frontier:
        nxt = []
        for x in frontier:
            w = words[x]
            for j, g in enumerate(gens):
                y = x + g
                if y not in words:
                    words[y] = tuple(c + (1 if k == j else 0) for k, c in enumerate(w))
                    nxt.append(y)
        frontier = nxt
    if set(words) != sub.element_set():
        raise InvariantViolation("generator closure does not match subgroup elements")
    # kernel of Z^s -> G: columns of V past the rank of [M | diag(n)]
    r = group.rank
    B = [[0] * (s + r) for _ in range(r)]
    for j, g in enumerate(gens):
        for i in range(r):
            B[i][j] = g.coords[i]
    for i, n in enumerate(group.moduli):
        B[i][s + i] = n
    S, U, V = smith_normal_form(B)
    _snf_check(B, S, U, V)
    rank = sum(1 for i in range(min(r, s + r)) if S[i][i] != 0)
    kernel_basis = []  # columns of V with index >= rank, first s coordinates
    for j in range(rank, s + r):
        kernel_basis.append([V[i][j] for i in range(s)])
    if not kernel_basis:
        raise InvariantViolation("finite subgroup must have a full-rank relation lattice")
    K = [[kernel_basis[j][i] for j in range(len(kernel_basis))] for i in range(s)]
    S2, U2, V2 = smith_normal_form(K)
    _snf_check(K, S2, U2, V2)
    diag = [S2[i][i] if i < len(S2[0]) else 0 for i in range(s)]
    if any(d == 0 for d in diag):
        raise InvariantViolation("subgroup relation lattice is not full rank")
    kept = [(i, d) for i, d in enumerate(diag) if d != 1]
    target = AbelianGroup([d for _, d in kept])
    iso: Dict[GroupElement, GroupElement] = {}
    for elem, w in words.items():
        coords = [sum(U2[i][k] * w[k] for k in range(s)) % d for i, d in kept]
        iso[elem] = target.element(coords)
    if len(set(iso.values())) != sub.order or target.order != sub.order:
        raise InvariantViolation("subgroup decomposition is not a bijection")
    # homomorphism spot-check on all pairs at desk scale
    elems = sub.elements
    if len(elems) <= 64:
        pairs = [(a, b) for a in elems for b in elems]
    else:
        pairs = [(a, b) for a in elems[:12] for b in elems[:12]]
    for a, b in pairs:
        if iso[a + b] != iso[a] + iso[b]:
            raise InvariantViolation("subgroup decomposition is not a homomorphism")
    return target, iso


# ---------------------------------------------------------------------------
# quotients of distance-regular Cayley graphs


def antipodal_quotient(graph: CayleyGraph, check: Optional[DRGCheck] = None) -> CayleyGraph:
    """Folded graph Cay(G/H, S/H) for antipodal Gamma; re-verified DRG."""
    if check is None:
        check = check_distance_regular(graph)
    info = imprimitivity(graph, check)
    if not info.antipodal or info.antipodal_class is None:
        raise SpecError("graph is not antipodal")
    if check.array.d < 2:
        raise SpecError("antipodal quotient needs diameter at least 2")
    q, proj = quotient_group(graph.group, info.antipodal_class)
    conn = {proj(s) for s in graph.connection}
    if any(x.is_zero for x in conn):
        raise InvariantViolation("connection set meets the antipodal class")
    folded = CayleyGraph(q, conn)
    if not check_distance_regular(folded).ok:
        raise InvariantViolation("antipodal quotient failed the distance-regularity recheck")
    return folded


def bipartition_subgroup(graph: CayleyGraph, check: Optional[DRGCheck] = None) -> Subgroup:
    if check is None:
        check = check_distance_regular(graph)
    info = imprimitivity(graph, check)
    if not info.bipartite:
        raise SpecError("graph is not bipartite")
    els = graph.group.elements()
    evens = [els[i] for cls in check.classes[::2] for i in cls]
    h = generated_subgroup(graph.group, evens)
    if h.order != len(evens):
        raise InvariantViolation("even-distance classes do not form a subgroup")
    if h.order * 2 != graph.order:
        raise InvariantViolation("bipartition subgroup must have index 2")
    return h


def halved_graph(graph: CayleyGraph, check: Optional[DRGCheck] = None) -> CayleyGraph:
    """Cay(H, S_2) on the bipartition subgroup, re-verified DRG."""
    if check is None:
        check = check_distance_regular(graph)
    h = bipartition_subgroup(graph, check)
    k_group, iso = subgroup_as_group(h)
    els = graph.group.elements()
    s2 = [els[i] for i in check.classes[2]] if check.array.d >= 2 else []
    if not s2:
        raise SpecError("graph has no distance-2 class to halve")
    conn = {iso[x] for x in s2}
    halved = CayleyGraph(k_group, conn)
    res = check_distance_regular(halved)
    if not res.ok:
        raise InvariantViolation("halved graph failed the distance-regularity recheck")
    if res.array.is_bipartite and halved.degree > 0 and halved.order > 2:
        raise InvariantViolation("halved graph of a bipartite graph must be non-bipartite")
    return halved


def quotient_by_subgroup(
    graph: CayleyGraph, sub: Subgroup, check: Optional[DRGCheck] = None
) -> Tuple[CayleyGraph, IntersectionArray]:
    """Quotient of an antipodal non-bipartite diameter-3 graph by a
    subgroup of its antipodal class, with the predicted array
    {k, mu|K|(r/|K| - 1), 1; 1, mu|K|, k} (complete when K = H)."""
    if check is None:
        check = check_distance_regular(graph)
    if not check.ok or check.array.d != 3:
        raise SpecError("quotient-by-subgroup requires a distance-regular graph of diameter 3")
    info = imprimitivity(graph, check)
    if not info.antipodal or info.bipartite:
        raise SpecError("quotient-by-subgroup requires an antipodal non-bipartite graph")
    H = info.antipodal_class
    if not set(sub.elements) <= set(H.elements):
        raise SpecError("subgroup is not contained in the antipodal class")
    arr = check.array
    k = arr.k
    mu = arr.c_at(2)
    r = H.order
    kk = sub.order
    if kk == r:
        predicted = IntersectionArray((k,), (1,))
    else:
        rr = r // kk
        predicted = IntersectionArray((k, mu * kk * (rr - 1), 1), (1, mu * kk, k))
    q, proj = quotient_group(graph.group, sub)
    conn = {proj(s) for s in graph.connection}
    if any(x.is_zero for x in conn):
        raise InvariantViolation("connection set meets the collapsing subgroup")
    quotient = CayleyGraph(q, conn)
    res = check_distance_regular(quotient)
    if not res.ok or res.array != predicted:
        raise InvariantViolation(
            f"quotient array {res.array if res.ok else 'none'} differs from predicted {predicted}"
        )
    return quotient, predicted


# ---------------------------------------------------------------------------
# cliques and the Delsarte bound


def clique_number(graph: CayleyGraph) -> int:
    """Exact maximum clique via branch and bound with greedy coloring."""
    n = graph.order
    A = graph.adjacency()
    adj = [0] * n
    for u in range(n):
        mask = 0
        for v in np.flatnonzero(A[u]):
            mask |= 1 << int(v)
        adj[u] = mask
    best = 0

    def color_bound(cand: int) -> List[Tuple[int, int]]:
        # greedy coloring, returns (vertex, color-count-so-far) in order
        order = []
        color_masks: List[int] = []
        rest = cand
        while rest:
            v = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            for ci, cm in enumerate(color_masks):
                if not (cm & adj[v]):
                    color_masks[ci] |= 1 << v
                    order.append((v, ci + 1))
                    break
            else:
                color_masks.append(1 << v)
                order.append((v, len(color_masks)))
        return order

    def expand(size: int, cand: int) -> None:
        nonlocal best
        order = color_bound(cand)
        for v, colors in reversed(order):
            if size + colors <= best:
                return
            nxt = cand & adj[v]
            if size + 1 > best:
                best = size + 1
            if nxt:
                expand(size + 1, nxt)
            cand &= ~(1 << v)

    expand(0, (1 << n) - 1)
    return best


def delsarte_bound(graph: CayleyGraph, dps: int = 40) -> int:
    """floor(1 - k/theta_min); exact when the least eigenvalue is integral."""
    import mpmath

    eig = spectrum(graph, dps)
    theta_min = to_ring(eig.values[-1])
    if eig.count == 1:
        raise SpecError("Delsarte bound needs a negative eigenvalue")
    if theta_min.is_rational_integer:
        t = theta_min.as_int()
        if t >= 0:
            raise SpecError("least eigenvalue must be negative")
        return int(Fraction(1) - Fraction(graph.degree, t))
    with mpmath.workdps(dps):
        t = theta_min.numeric(dps).real
        if t >= 0:
            raise SpecError("least eigenvalue must be negative")
        val = 1 - mpmath.mpf(graph.degree) / t
        if abs(val - mpmath.nint(val)) < mpmath.mpf(10) ** (-dps // 2):
            raise PrecisionError("Delsarte bound too close to an integer to floor safely")
        return int(mpmath.floor(val))


# ---------------------------------------------------------------------------
# Fourier coefficients


def fourier_coefficient(group: AbelianGroup, vec: Sequence[int], g: GroupElement) -> CyclotomicInteger:
    """hat(a)(chi_g) = sum_x a[x] chi_g(x), read off the library's character table."""
    arr = np.asarray(vec, dtype=np.int64)
    if arr.shape != (group.order,):
        raise SpecError("coefficient vector has wrong length")
    m = group.exponent
    counts = np.zeros(m, dtype=np.int64)
    np.add.at(counts, character_table(group)[group.index(g)], arr)
    return CyclotomicInteger.from_root_counts(m, counts)


def fourier_transform(group: AbelianGroup, vec: Sequence[int]) -> Tuple[CyclotomicInteger, ...]:
    """All Fourier coefficients in character index order."""
    return tuple(fourier_coefficient(group, vec, g) for g in group.elements())


def fourier_inverse(group: AbelianGroup, values: Sequence[CyclotomicInteger]) -> np.ndarray:
    """a[x] = (1/|G|) sum_g values[g] chi_g(-x); raises SpecError when the
    values are not the transform of an integer vector."""
    n, m = group.order, group.exponent
    if len(values) != n:
        raise SpecError(f"expected {n} character values")
    table = character_table(group)
    out = np.zeros(n, dtype=np.int64)
    for xi in range(n):
        total = CyclotomicInteger.from_int(0)
        for v, e in zip(values, table[:, xi].tolist()):
            total = total + v * CyclotomicInteger.from_root_power(m, -e % m)
        if not total.is_rational_integer or total.as_int() % n:
            raise SpecError("values are not the Fourier transform of an integer vector")
        out[xi] = total.as_int() // n
    return out


# ---------------------------------------------------------------------------
# number theory


def _prime_factors(n: int) -> Tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _squarefree_part(n: int) -> int:
    """Squarefree part of n, keeping the sign."""
    if n == 0:
        return 0
    out = 1 if n > 0 else -1
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            out *= d
            n //= d
        d += 1
    return out * n


def _sqrt_in_cyclotomic(d: int, m: int) -> bool:
    """Whether the square root of d lies in the m-th cyclotomic field.

    Works through the squarefree part and the conductor of the quadratic
    field it generates; m is normalised first since conductors 2 mod 4
    name no new field.
    """
    d0 = _squarefree_part(d)
    if d0 == 1:
        return True
    w = m // 2 if m % 4 == 2 else m
    disc = d0 if d0 % 4 == 1 else 4 * d0
    return w % abs(disc) == 0


# ---------------------------------------------------------------------------
# the relative-difference-set order condition


def rds_order_constraint(group: AbelianGroup, dset: Iterable[GroupElement],
                         forbidden) -> bool:
    """Order condition for relative difference sets with parameters of the
    shape (nm, n, nm, m): every group element must have order dividing
    nm, except that the cyclic group of order 4 passes when n = 2 and
    m = 1.  Inputs that are not relative difference sets of that shape
    are rejected.
    """
    chk = is_relative_difference_set(group, dset, forbidden)
    if not chk.ok:
        raise SpecError(
            f"not a relative difference set: count {chk.actual} at "
            f"{format_element(chk.witness)}, expected {chk.expected}")
    m_idx, r, k, mu = chk.params
    if m_idx != k or k != r * mu:
        raise SpecError(
            f"parameters (m={m_idx}, r={r}, k={k}, mu={mu}) lack the (nm, n, nm, m) shape")
    nm = k
    if all(nm % element_order(g) == 0 for g in group.elements()):
        return True
    if r == 2 and mu == 1 and group.order == 4 and group.exponent == 4:
        return True
    return False


# ---------------------------------------------------------------------------
# monomial addition sets over cyclic groups


_PAS_MAX_MODULUS = 40
_PAS_MAX_DEGREE = 5


def _b_candidates(t: int, n: int, bound: int) -> Tuple[int, ...]:
    # every nontrivial character value z has |z|^2 = t and z^n = b,
    # so b^2 = t^n; for odd n that already forces t to be a square
    if n % 2 == 0:
        w = t ** (n // 2)
    else:
        u = math.isqrt(t)
        if u * u != t:
            return ()
        w = u ** n
    return tuple(b for b in (w, -w) if abs(b) <= bound)


def _ma_coset_kill(v: int, t: int) -> bool:
    """p | v with p^2 | t makes every character sum divisible by p; the
    coset decomposition then forces the set to be a union of cosets of
    the order-p subgroup, so the convolution power is constant on those
    cosets and the monomial constant b would have to vanish."""
    return any(t % (p * p) == 0 for p in _prime_factors(v))


def _character_value_branches(v: int, t: int, n: int, b: int):
    """Describe the solutions z of z^n = b with |z|^2 = t inside the v-th
    cyclotomic field, one entry per admissible root-of-unity twist of
    z^2 / t.  Integer entries are rational solutions; None marks an
    irrational branch.  An empty result kills the (v, t, n, b) case."""
    ell = math.lcm(2, v)
    g = math.gcd(n, ell)
    t0 = _squarefree_part(t)
    out = []
    for j in range(g):
        gpp = g // math.gcd(g, j) if j else 1
        if n % 2 == 0:
            # the sign of b is pinned by (t * zeta)^(n/2)
            e = (j * (n // 2)) % g
            if e == 0:
                if b != t ** (n // 2):
                    continue
            elif 2 * e == g:
                if b != -(t ** (n // 2)):
                    continue
            else:
                continue
        if gpp == 2:
            d = -t0
        elif gpp == 4:
            # zeta_8 enters; fold it into the quadratic part
            if v % 8 == 0:
                d = t0
            elif t0 % 2 == 0:
                d = t0 // 2
            else:
                d = 2 * t0
        else:
            d = t0  # odd-order roots of unity have square roots in place
        if not _sqrt_in_cyclotomic(d, v):
            continue
        if gpp == 1 and t0 == 1:
            u = math.isqrt(t)
            if n % 2 == 0:
                out.extend((u, -u))
            else:
                out.append(u if b > 0 else -u)
        else:
            out.append(None)
    return tuple(dict.fromkeys(out))


def _rational_collapse_kill(v: int, k: int, branches) -> bool:
    """When every admissible character value is a rational integer, the
    indicator coefficients are pinned by Fourier inversion; integrality
    of the inverted sums then rules most cases out."""
    if any(x is None for x in branches):
        return False
    vals = sorted(set(branches))
    if len(vals) == 1:
        z = vals[0]
        for doff in (0, 1):
            for dzero in (0, 1):
                if (v * doff == k - z and v * dzero == k + z * (v - 1)
                        and k == (v - 1) * doff + dzero):
                    return False
        return True
    if len(vals) == 2:
        r2, r1 = vals
        den = r1 - r2
        feas = [d for d in (0, 1)
                if (v * d - k + r2) % den == 0
                and abs((v * d - k + r2) // den) <= v - 1]
        if not feas:
            return True
        if feas == [0] and k > 1:
            return True
        if feas == [1] and k < v - 1:
            return True
        # the value multiplicities must solve a feasible counting system
        for dzero in (0, 1):
            num = (v * dzero - k) - r2 * (v - 1)
            if num % den == 0 and 0 <= num // den <= v - 1:
                return False
        return True
    return False


def monomial_pas_search(v: Union[int, AbelianGroup], n: int,
                        bound: int) -> List[Tuple[FrozenSet[GroupElement], int]]:
    """Search Z_v for addition sets of x**n - b with 1 < |D| < v - 1 and
    |b| <= bound.

    The difference-count, character-field and coset filters rule out
    every (v, k, n, b) case of the domain (v <= 40, n <= 5) but
    (40, 13, 4, 81) and (40, 27, 4, 81), so the search returns [].  A
    case they leave open raises SpecError instead of enumerating its
    C(v, k) subsets: a bound of 81 or more at v = 40, n = 4 is refused.
    """
    if isinstance(v, AbelianGroup):
        if len(v.moduli) != 1:
            raise SpecError("the monomial search runs over cyclic groups")
        v = v.moduli[0]
    v, n, bound = int(v), int(n), int(bound)
    if not 2 <= v <= _PAS_MAX_MODULUS:
        raise SpecError(f"modulus must be between 2 and {_PAS_MAX_MODULUS}")
    if not 1 <= n <= _PAS_MAX_DEGREE:
        raise SpecError(f"degree must be between 1 and {_PAS_MAX_DEGREE}")
    if bound < 0:
        raise SpecError("bound must be non-negative")
    if n == 1:
        # x - b asks for D = b*e + m*G, so the indicator is constant off
        # the identity and |D| is one of 0, 1, v-1, v: the range is empty
        return []
    for k in range(2, v - 1):
        if (k * (k - 1)) % (v - 1):
            continue
        t = k - k * (k - 1) // (v - 1)
        for b in _b_candidates(t, n, bound):
            if (k ** n - b) % v or _ma_coset_kill(v, t):
                continue
            branches = _character_value_branches(v, t, n, b)
            if not branches or _rational_collapse_kill(v, k, branches):
                continue
            raise SpecError(
                f"monomial case (v, k, n, b) = ({v}, {k}, {n}, {b}) passes every filter;"
                f" deciding it needs C({v}, {k}) = {math.comb(v, k)} subsets"
            )
    return []


# ---------------------------------------------------------------------------
# coset decomposition


def ma_decompose(group: AbelianGroup, element: AlgebraElement, p: int,
                 a: int = 1) -> Tuple[AlgebraElement, AlgebraElement]:
    """Split element as p**a * X1 + P * X2, with P the unique order-p
    subgroup of a cyclic Sylow p-part.

    The split exists whenever every character of order divisible by the
    full Sylow size has value divisible by p**a; that condition is
    verified exactly first and its failure is reported as a usage error.
    Non-negative inputs produce non-negative parts: each coset of P
    contributes its least residue to X2 (on the minimal-index coset
    representative) and the remainder to X1.
    """
    if not is_prime(p):
        raise SpecError("p must be prime")
    if a < 1:
        raise SpecError("the exponent a must be positive")
    if not isinstance(element, AlgebraElement) or element.group != group:
        raise SpecError("element must live in the group algebra of the given group")
    divis = [mi for mi in group.moduli if mi % p == 0]
    if not divis:
        raise SpecError("p does not divide the group order")
    if len(divis) > 1:
        raise SpecError("the Sylow p-subgroup is not cyclic")
    ps = 1
    mm = divis[0]
    while mm % p == 0:
        mm //= p
        ps *= p
    pa = p ** a
    for g in group.elements():
        if element_order(g) % ps:
            continue
        val = fourier_coefficient(group, element.coeffs, g)
        if any(c % pa for c in val.coeffs):
            raise SpecError(
                f"character sum at {format_element(g)} is not divisible by {pa}")
    i0 = list(group.moduli).index(divis[0])
    coords = [0] * len(group.moduli)
    coords[i0] = divis[0] // p
    psub = generated_subgroup(group, [group.element(coords)])
    x1 = np.zeros(group.order, dtype=np.int64)
    x2 = np.zeros(group.order, dtype=np.int64)
    seen = set()
    for g in group.elements():
        if group.index(g) in seen:
            continue
        members = sorted(group.index(g + h) for h in psub.elements)
        seen.update(members)
        vals = [int(element.coeffs[i]) for i in members]
        residues = {val % pa for val in vals}
        if len(residues) > 1:
            raise InvariantViolation(
                "coefficients are not congruent on a coset despite divisible character sums")
        c = residues.pop()
        x2[members[0]] = c
        for i, val in zip(members, vals):
            x1[i] = (val - c) // pa
    return AlgebraElement(group, x1), AlgebraElement(group, x2)


# ---------------------------------------------------------------------------
# level-set certificates


@dataclass(frozen=True)
class LevelSetCertificate:
    """Verified level-set data of an antipodal cover: the fiber character
    index, the level set inside the base group, its eigenvalue, and the
    per-element mismatch of the defining character identity (all zero on
    any issued certificate)."""

    psi_index: int
    level_set: Tuple[GroupElement, ...]
    theta: Union[int, str]
    residual: Tuple[CyclotomicInteger, ...]

    def to_dict(self) -> dict:
        return {
            "psi": self.psi_index,
            "level_set": [format_element(g) for g in self.level_set],
            "theta": self.theta,
            "residual": [repr(x) for x in self.residual],
        }


@dataclass(frozen=True)
class CertificateOutcome:
    status: str  # "certificate" or "precondition-unmet"
    reason: str
    certificate: Optional[LevelSetCertificate] = None

    @property
    def ok(self) -> bool:
        return self.status == "certificate"

    def to_dict(self) -> dict:
        out = {"status": self.status, "reason": self.reason}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        return out


def _unmet(reason: str) -> CertificateOutcome:
    return CertificateOutcome("precondition-unmet", reason)


def _fiber_character_residuals(base: AbelianGroup, r: int, psi: int,
                               rsets: Sequence[set], bind: np.ndarray, scale,
                               id_term) -> List[CyclotomicInteger]:
    """Mismatch, per base element l, of
    scale * chi_l(B) - |base| * (sum_i psi(i) [(-l) in R_i] + id_term [l = 0])."""
    nb = base.order
    out = []
    for l in base.elements():
        lhs = scale * fourier_coefficient(base, bind, l)
        acc = CyclotomicInteger.from_int(0)
        minus_l = neg(l)
        for i in range(r):
            if minus_l in rsets[i]:
                acc = acc + zeta(r, (psi * i) % r)
        if l.is_zero:
            acc = acc + id_term
        out.append(lhs - nb * acc)
    return out


def _power_identity_residuals(base: AbelianGroup, bset: Iterable[GroupElement],
                              two_delta, theta3, r: int) -> List[CyclotomicInteger]:
    """Mismatch, per base element, of the closed form for the r-th
    convolution power of the level set:
    (2 delta)^r B^r = |base|^(r-1) (((-theta3)^r - 1) G + |base| e)."""
    balg = AlgebraElement.from_set(base, bset)
    power = balg
    for _ in range(r - 1):
        power = power * balg
    nb = base.order
    lead = two_delta ** r
    bulk = ((-theta3) ** r - CyclotomicInteger.from_int(1)) * (nb ** (r - 1))
    out = []
    for g in base.elements():
        rhs = bulk + (nb ** r if g.is_zero else 0)
        out.append(lead * power.coeff(g) - rhs)
    return out


def _layer_sets(graph: CayleyGraph, base: AbelianGroup, r: int) -> List[set]:
    """Split the connection set by fiber coordinate into base-group sets."""
    rsets: List[set] = [set() for _ in range(r)]
    for s in graph.connection:
        b_el = base.element(s.coords[:-1])
        if b_el.is_zero:
            raise InvariantViolation("connection set meets the antipodal fiber")
        rsets[s.coords[-1] % r].add(b_el)
    return rsets


def _certificate_d3(graph: CayleyGraph, chk: DRGCheck, base: AbelianGroup,
                    r: int, psi: int) -> CertificateOutcome:
    group = graph.group
    nb = base.order
    rsets = _layer_sets(graph, base, r)
    tagged = [g for rs in rsets for g in rs]
    if len(tagged) != nb - 1 or len(set(tagged)) != nb - 1:
        raise InvariantViolation("fiber layers do not partition the base group")
    eig = spectrum(graph)
    if eig.count != 4:
        raise InvariantViolation("expected exactly four distinct eigenvalues")
    theta1, theta2, theta3 = (to_ring(v) for v in eig.values[1:])
    if theta2 != CyclotomicInteger.from_int(-1):
        raise InvariantViolation("middle eigenvalue is not -1")
    two_delta = theta1 - theta3
    sind = graph.indicator()
    vals = {}
    for g in base.elements():
        full = group.element(tuple(g.coords) + (psi,))
        vals[g] = fourier_coefficient(group, sind, full)
    for g, vv in vals.items():
        if vv != theta1 and vv != theta3:
            raise InvariantViolation(
                f"twisted character sum at {format_element(g)} misses both eigenvalues")
    bset = sorted(g for g in base.elements() if vals[g] == theta1)
    bind = np.zeros(nb, dtype=np.int64)
    bind[[base.index(g) for g in bset]] = 1
    residual = _fiber_character_residuals(base, r, psi, rsets, bind,
                                          two_delta, -theta3)
    if any(x != CyclotomicInteger.from_int(0) for x in residual):
        raise InvariantViolation("level-set character identity failed")
    if r == 2:
        bmem = set(bset)
        if base.zero in bmem:
            cset = [g for g in base.elements() if g not in bmem]
            thet = theta1
        else:
            cset = list(bset)
            thet = -theta3
        calg = AlgebraElement.from_set(base, cset)
        sq = calg * calg
        bulk = nb * (thet * thet - CyclotomicInteger.from_int(1))
        for g in base.elements():
            rhs = bulk + (nb * nb if g.is_zero else 0)
            if (two_delta * two_delta) * sq.coeff(g) != rhs:
                raise InvariantViolation("level-set square identity failed")
        try:
            side = check_distance_regular(CayleyGraph(base, cset))
        except (SpecError, NotConnectedError) as exc:
            raise InvariantViolation(f"level set is not a connection set: {exc}") from exc
        if not side.ok or side.array.d != 2:
            raise InvariantViolation("level-set graph is not strongly regular")
        lam = side.array.a_at(1)
        mu = side.array.c_at(2)
        gap2 = two_delta * two_delta
        if gap2 * lam != bulk or gap2 * mu != bulk:
            raise InvariantViolation("level-set graph parameters are off")
    else:
        residual_pow = _power_identity_residuals(base, bset, two_delta, theta3, r)
        if any(x != CyclotomicInteger.from_int(0) for x in residual_pow):
            raise InvariantViolation("level-set power identity failed")
        if theta1.is_rational_integer and theta3.is_rational_integer:
            gap = theta1.as_int() - theta3.as_int()
            if gap <= 0 or nb % gap:
                raise InvariantViolation("eigenvalue gap does not divide the base order")
            bconst = (nb // gap) ** r
            pas = is_polynomial_addition_set(base, bset,
                                             [-bconst] + [0] * (r - 1) + [1])
            if not pas.ok:
                raise InvariantViolation("addition-set reformulation failed")
    theta_out: Union[int, str]
    theta_out = theta1.as_int() if theta1.is_rational_integer else repr(theta1)
    cert = LevelSetCertificate(psi, tuple(bset), theta_out, tuple(residual))
    return CertificateOutcome("certificate", "verified", cert)


def _certificate_d4(graph: CayleyGraph, chk: DRGCheck, base: AbelianGroup,
                    r: int, psi: int) -> CertificateOutcome:
    group = graph.group
    nb = base.order
    half = bipartition_subgroup(graph, chk)
    fiber_gen = group.element((0,) * len(base.moduli) + (1,))
    if fiber_gen not in half:
        return _unmet("bipartition does not contain the fiber")
    m1 = {g for g in base.elements()
          if group.element(tuple(g.coords) + (0,)) in half}
    k = chk.array.k
    s = math.isqrt(k)
    if s * s != k:
        raise InvariantViolation("valency is not a perfect square")
    if (nb * r) % (2 * s):
        raise InvariantViolation("2 sqrt(k) does not divide the group order")
    rsets = _layer_sets(graph, base, r)
    tagged = [g for rs in rsets for g in rs]
    odd_part = [g for g in base.elements() if g not in m1]
    if sorted(tagged) != sorted(odd_part) or len(set(tagged)) != len(tagged):
        raise InvariantViolation("fiber layers do not partition the odd half")
    sind = graph.indicator()
    vals = {}
    for g in base.elements():
        full = group.element(tuple(g.coords) + (psi,))
        vals[g] = fourier_coefficient(group, sind, full)
    for g, vv in vals.items():
        if vv * vv != CyclotomicInteger.from_int(k):
            raise InvariantViolation(
                f"twisted character sum at {format_element(g)} does not square to the valency")
    bset = sorted(g for g in base.elements() if vals[g] == CyclotomicInteger.from_int(s))
    if 2 * len(bset) != nb:
        raise InvariantViolation("level set is not half the base group")
    bind = np.zeros(nb, dtype=np.int64)
    bind[[base.index(g) for g in bset]] = 1
    residual = _fiber_character_residuals(base, r, psi, rsets, bind,
                                          CyclotomicInteger.from_int(2 * s),
                                          CyclotomicInteger.from_int(s))
    if any(x != CyclotomicInteger.from_int(0) for x in residual):
        raise InvariantViolation("level-set character identity failed")
    cert = LevelSetCertificate(psi, tuple(bset), s, tuple(residual))
    return CertificateOutcome("certificate", "verified", cert)


def level_set_certificate(graph: CayleyGraph, psi_index: int) -> CertificateOutcome:
    """Extract and verify the eigenvalue level set of an antipodal cover
    whose antipodal class is the fiber over the last group coordinate.

    Diameter-3 covers must be non-bipartite; diameter-4 covers must be
    bipartite over an odd prime fiber.  Structural mismatches come back
    as a precondition-unmet outcome.  Once the preconditions hold, any
    failure of the certified identities raises InvariantViolation.
    """
    group = graph.group
    if len(group.moduli) < 2:
        return _unmet("group does not split off a fiber coordinate")
    r = group.moduli[-1]
    if not is_prime(r):
        return _unmet(f"fiber size {r} is not prime")
    if not 1 <= int(psi_index) < r:
        raise SpecError("psi must index a nontrivial fiber character")
    base = make_group(group.moduli[:-1])
    try:
        chk = check_distance_regular(graph)
    except NotConnectedError:
        return _unmet("graph is not connected")
    if not chk.ok:
        return _unmet("graph is not distance-regular")
    imp = imprimitivity(graph, chk)
    if not imp.antipodal:
        return _unmet("graph is not antipodal")
    fiber = frozenset(g for g in group.elements()
                      if all(c == 0 for c in g.coords[:-1]))
    if imp.antipodal_class.element_set() != fiber:
        return _unmet("antipodal class is not the fiber over the last coordinate")
    d = chk.array.d
    if d == 3:
        if imp.bipartite:
            return _unmet("diameter-3 covers must be non-bipartite here")
        return _certificate_d3(graph, chk, base, r, int(psi_index))
    if d == 4:
        if not imp.bipartite:
            return _unmet("diameter-4 covers must be bipartite here")
        if r == 2:
            return _unmet("diameter-4 covers need an odd prime fiber")
        return _certificate_d4(graph, chk, base, r, int(psi_index))
    return _unmet(f"diameter {d} carries no level-set certificate")
