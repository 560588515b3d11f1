"""The expected catalogs, and the connection sets behind the CLI's crown
and transversal-design shorthands.

The catalog functions enumerate every connection set the classification
is expected to find over a given group, labelled the same way the
classifier labels them; only they build the subgroup lattice, as the crown
halves and the lines of Z_p + Z_p are maximal subgroups.  The family
constructors with their predicted arrays live in tests/reference.py.
"""

import itertools as it
from dataclasses import dataclass
from math import gcd
from typing import List, Optional, Sequence, Tuple

from .errors import SpecError
from .graphs import CayleyGraph, FamilyLabel, detect_family
from .groups import (
    AbelianGroup,
    GroupElement,
    Subgroup,
    all_subgroups,
    check_orbit_bits,
    is_prime,
    make_group,
    maximal_subgroups,
)


@dataclass(frozen=True)
class CatalogEntry:
    connection: frozenset
    label: FamilyLabel

    def to_dict(self) -> dict:
        conn = sorted(self.connection)
        d = {"connection": [",".join(map(str, e.coords)) for e in conn]}
        d.update(self.label.to_dict())
        return d


def crown(group: AbelianGroup, half: Subgroup, a: GroupElement) -> frozenset:
    """The crown set: the complement of the index-2 subgroup half, minus
    the involution a outside it."""
    n = group.order
    if n < 6:
        raise SpecError("crown needs at least 6 vertices")
    if 2 * half.order != n:
        raise SpecError("crown part must have index 2")
    if a.is_zero or not (a + a).is_zero:
        raise SpecError("matching element must be an involution")
    members = half.element_set()
    if a in members:
        raise SpecError("matching element must lie outside the index-2 part")
    return frozenset(e for e in group.elements() if e not in members and e != a)


def order_p_subgroups(p: int) -> Tuple[Subgroup, ...]:
    """The p+1 order-p subgroups (the maximal ones) of Z_p + Z_p, p an odd prime."""
    if p == 2 or not is_prime(p):
        raise SpecError("order must be an odd prime")
    return maximal_subgroups(make_group([p, p]))


def td_line_graph(p: int, subgroups: Sequence[Subgroup]) -> frozenset:
    """The union of 2..p+1 distinct order-p subgroups of Z_p + Z_p, less
    the identity: the connection set of a transversal-design line graph."""
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
    return frozenset(e for h in subgroups for e in h.elements if not e.is_zero)


# ---------------------------------------------------------------------------
# expected catalogs


def crown_connection_sets(group: AbelianGroup) -> List[frozenset]:
    """All crown sets: complement of an index-2 subgroup minus an involution."""
    n = group.order
    if n % 2 or n < 6:
        return []
    involutions = [e for e in group.elements() if not e.is_zero and (e + e).is_zero]
    sets = {
        crown(group, half, a)
        for half in maximal_subgroups(group) if 2 * half.order == n
        for a in involutions if a not in half
    }
    return sorted(sets, key=lambda s: sorted(e.coords for e in s))


def _catalog(group: AbelianGroup) -> List[CatalogEntry]:
    """The complete set, the complement of every proper nontrivial
    subgroup and the crown sets; on Z_n also the +-g cycles (g a unit,
    n >= 3) and the Paley pair (n a prime 1 mod 4); on Z_p + Z_p also the
    unions of 2..p-1 order-p subgroups.  Deduplicated, ordered by size and
    then coordinates, and labelled by detect_family.  Refused (SpecError)
    past the 63 orbit bits of a subset id, as the search is, before the
    subgroup lattice is built."""
    check_orbit_bits(group)
    n = group.order
    elements = group.elements()
    sets = [frozenset(e for e in elements if not e.is_zero)]
    for h in all_subgroups(group):
        if 1 < h.order < n:
            sets.append(frozenset(e for e in elements if e not in h.element_set()))
    sets.extend(crown_connection_sets(group))
    if group.rank == 1:
        if n >= 3:
            sets += [frozenset({group.element([g]), group.element([-g])}) for g in range(1, n) if gcd(g, n) == 1]
        if is_prime(n) and n % 4 == 1:
            squares = frozenset(group.element([pow(x, 2, n)]) for x in range(1, n))
            sets += [squares, frozenset(e for e in elements if not e.is_zero and e not in squares)]
    elif group.rank == 2 and group.moduli[0] == group.moduli[1]:
        p = group.moduli[0]
        lines = order_p_subgroups(p)
        sets += [td_line_graph(p, combo) for r in range(2, p) for combo in it.combinations(lines, r)]
    uniq = sorted(set(sets), key=lambda s: (len(s), sorted(e.coords for e in s)))
    return [CatalogEntry(s, detect_family(CayleyGraph(group, s))) for s in uniq]


def catalog_shape_fault(group: AbelianGroup) -> Optional[str]:
    """Why group is not Z_n + Z_p with p an odd prime dividing n, or None."""
    if len(group.moduli) != 2:
        return "catalog group must be given as Z_n + Z_p"
    n, p = group.moduli
    if p == 2 or not is_prime(p):
        return "second invariant must be an odd prime"
    if n % p:
        return "catalog needs p dividing n"


def expected_catalog(group: AbelianGroup) -> List[CatalogEntry]:
    """Every connection set the classification should report over Z_n + Z_p."""
    fault = catalog_shape_fault(group)
    if fault:
        raise SpecError(fault)
    return _catalog(group)


def expected_circulant_catalog(n: int) -> List[CatalogEntry]:
    """Connection sets of all distance-regular circulants on Z_n."""
    if n < 1:
        raise SpecError("order must be positive")
    return _catalog(make_group([n]))
