"""Generators for the catalogued graph families.

Each constructor returns the graph together with its predicted intersection
array, so callers can certify the construction independently.  The catalog
functions enumerate every connection set the classification is expected to
find over a given group, labelled the same way the classifier labels them.
"""

from dataclasses import dataclass
from typing import List, Sequence

from .errors import SpecError
from .graphs import (
    CayleyGraph,
    FamilyLabel,
    IntersectionArray,
    check_distance_regular,
    detect_family,
)
from .groups import (
    AbelianGroup,
    GroupElement,
    Subgroup,
    all_subgroups,
    is_prime,
    make_group,
    subgroups_of_order,
)


@dataclass(frozen=True)
class Construction:
    graph: CayleyGraph
    predicted: IntersectionArray
    label: FamilyLabel

    def verify(self) -> bool:
        res = check_distance_regular(self.graph)
        return res.ok and res.array == self.predicted


@dataclass(frozen=True)
class CatalogEntry:
    connection: frozenset
    label: FamilyLabel

    def to_dict(self) -> dict:
        conn = sorted(self.connection)
        d = {"connection": [",".join(map(str, e.coords)) for e in conn]}
        d.update(self.label.to_dict())
        return d


def srg_array(k: int, lam: int, mu: int) -> IntersectionArray:
    """Intersection array of a strongly regular graph (diameter 2)."""
    return IntersectionArray((k, k - lam - 1), (1, mu))


def complete_graph(group: AbelianGroup) -> Construction:
    n = group.order
    s = [e for e in group.elements() if not e.is_zero]
    graph = CayleyGraph(group, s)
    arr = IntersectionArray((n - 1,), (1,)) if n > 1 else IntersectionArray((), ())
    return Construction(graph, arr, FamilyLabel("complete", (("n", n),)))


def complete_multipartite(group: AbelianGroup, part: Subgroup) -> Construction:
    n = group.order
    if not 1 < part.order < n:
        raise SpecError("multipartite part must be a proper nontrivial subgroup")
    t, m = n // part.order, part.order
    s = [e for e in group.elements() if e not in part.element_set()]
    graph = CayleyGraph(group, s)
    return Construction(graph, srg_array((t - 1) * m, (t - 2) * m, (t - 1) * m), detect_family(graph))


def crown(group: AbelianGroup, half: Subgroup, a: GroupElement) -> Construction:
    n = group.order
    if n < 6:
        raise SpecError("crown needs at least 6 vertices")
    if 2 * half.order != n:
        raise SpecError("crown part must have index 2")
    if a.is_zero or not (a + a).is_zero:
        raise SpecError("matching element must be an involution")
    if a in half.element_set():
        raise SpecError("matching element must lie outside the index-2 part")
    k = n // 2 - 1
    s = [e for e in group.elements() if e not in half.element_set() and e != a]
    graph = CayleyGraph(group, s)
    return Construction(graph, IntersectionArray((k, k - 1, 1), (1, k - 1, k)), detect_family(graph))


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
    return Construction(graph, arr, detect_family(graph))


def order_p_subgroups(p: int) -> List[Subgroup]:
    """The p+1 order-p subgroups of Z_p + Z_p, deterministically ordered."""
    group = make_group([p, p])
    return subgroups_of_order(group, p)


def td_line_graph(p: int, subgroups: Sequence[Subgroup]) -> Construction:
    if p == 2 or not is_prime(p):
        raise SpecError("order must be an odd prime")
    r = len(subgroups)
    if not 2 <= r <= p + 1:
        raise SpecError(f"need between 2 and {p + 1} subgroups, got {r}")
    if len({h.elements for h in subgroups}) != r:
        raise SpecError("subgroups must be pairwise distinct")
    for h in subgroups:
        if h.group.moduli != (p, p) or h.order != p:
            raise SpecError("every part must be an order-p subgroup of Z_p + Z_p")
    group = subgroups[0].group
    s = sorted({e for h in subgroups for e in h.elements if not e.is_zero})
    graph = CayleyGraph(group, s)
    if r == p + 1:
        arr = IntersectionArray((p * p - 1,), (1,))
    else:
        arr = srg_array(r * (p - 1), p + r * r - 3 * r, r * r - r)
    return Construction(graph, arr, detect_family(graph))


def paley(q: int) -> Construction:
    if not is_prime(q) or q % 4 != 1:
        raise SpecError("Paley graph needs a prime congruent to 1 mod 4")
    group = make_group([q])
    s = sorted({group.element([pow(x, 2, q)]) for x in range(1, q)})
    graph = CayleyGraph(group, s)
    return Construction(graph, srg_array((q - 1) // 2, (q - 5) // 4, (q - 1) // 4), detect_family(graph))


# ---------------------------------------------------------------------------
# expected catalogs


def crown_connection_sets(group: AbelianGroup) -> List[frozenset]:
    """All crown sets: complement of an index-2 subgroup minus an involution."""
    n = group.order
    if n % 2 or n < 6:
        return []
    sets = set()
    involutions = [e for e in group.elements() if not e.is_zero and (e + e).is_zero]
    for half in subgroups_of_order(group, n // 2):
        members = half.element_set()
        for a in involutions:
            if a in members:
                continue
            sets.add(frozenset(e for e in group.elements() if e not in members and e != a))
    return sorted(sets, key=lambda s: sorted(e.coords for e in s))


def _entry(group: AbelianGroup, conn: frozenset) -> CatalogEntry:
    return CatalogEntry(conn, detect_family(CayleyGraph(group, conn)))


def _sorted_entries(group: AbelianGroup, sets) -> List[CatalogEntry]:
    uniq = sorted(set(sets), key=lambda s: (len(s), sorted(e.coords for e in s)))
    return [_entry(group, s) for s in uniq]


def expected_catalog(group: AbelianGroup) -> List[CatalogEntry]:
    """Every connection set the classification should report over Z_n + Z_p."""
    if len(group.moduli) != 2:
        raise SpecError("catalog group must be given as Z_n + Z_p")
    n, p = group.moduli
    if p == 2 or not is_prime(p):
        raise SpecError("second invariant must be an odd prime")
    if n % p:
        raise SpecError("catalog needs p dividing n")
    elements = group.elements()
    sets = [frozenset(e for e in elements if not e.is_zero)]
    for h in all_subgroups(group):
        if 1 < h.order < group.order:
            sets.append(frozenset(e for e in elements if e not in h.element_set()))
    sets.extend(crown_connection_sets(group))
    if n == p:
        lines = subgroups_of_order(group, p)
        import itertools as it

        for r in range(2, p):
            for combo in it.combinations(lines, r):
                sets.append(frozenset(e for h in combo for e in h.elements if not e.is_zero))
    return _sorted_entries(group, sets)


def expected_circulant_catalog(n: int) -> List[CatalogEntry]:
    """Connection sets of all distance-regular circulants on Z_n."""
    if n < 1:
        raise SpecError("order must be positive")
    group = make_group([n])
    elements = group.elements()
    sets = [frozenset(e for e in elements if not e.is_zero)]
    if n >= 3:
        for g in range(1, n):
            from math import gcd

            if gcd(g, n) == 1:
                sets.append(frozenset({group.element([g]), group.element([n - g])}))
    for h in all_subgroups(group):
        if 1 < h.order < n:
            sets.append(frozenset(e for e in elements if e not in h.element_set()))
    sets.extend(crown_connection_sets(group))
    if is_prime(n) and n % 4 == 1:
        squares = frozenset(group.element([pow(x, 2, n)]) for x in range(1, n))
        nonsquares = frozenset(e for e in elements if not e.is_zero and e not in squares)
        sets.append(squares)
        sets.append(nonsquares)
    return _sorted_entries(group, sets)
