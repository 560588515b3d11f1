"""Exhaustive classification of distance-regular Cayley graphs.

The search space over a group G is the family of inverse-closed subsets
of G\\{0}, indexed by bitmasks over the {g,-g} orbit basis.  Candidates
pass three exact stages: a maximal-subgroup containment test for
connectivity, a first-level screen (common-neighbour counts must be
constant on the set and on its coverage ring), and the full
distance-regularity check.  The screen walks the low orbit bits in Gray
order, so consecutive sets differ by one orbit and conv(S) is updated in
place.  It keeps one row per {g,-g} orbit rather than per element, since
an inverse-closed S has conv(S)[g] == conv(S)[-g].  With S = H + Lo, H
the high orbits fixed per column and Lo the low orbits shared by all
columns, conv(S) = conv(H) + 2 (H * Lo) + conv(Lo), so toggling low orbit
o_j adds or subtracts D_j = 2 (o_j * H), built once per worker, and one
column-independent vector: the update does no gathers.  Counts are at most
|S| < |G| <= 127, so the walk runs exactly in int8, and conv is constant
on S iff its max there is at most its min; the few columns left take the
same int8 test on their coverage ring.  The screen can only
over-approximate the answer set, never drop a graph.

The unit of parallel work is a range of Gray steps over every column: a
range starting at step t first adds the low orbits of gray(t) =
t ^ (t >> 1), then walks on as usual.  Worker processes, spawned only for
searches of at least `SPAWN_SUBSETS` sets (smaller ones run in process
whatever the worker count, since spawning costs more than it saves),
take equal step ranges and return only the screen's survivors.  An
automorphism sigma maps Cay(G, S) onto Cay(G, sigma S), and the screen is
Aut(G)-invariant, so the survivors come in whole Aut(G)-orbits:
`classify_group` splits the merged survivors into classes with one
`aut_classes` pass per class and makes the final, exact check once per
class.  The report's serialized form is therefore byte-identical for any
worker count.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from multiprocessing import get_context
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .constructions import CatalogEntry, catalog_shape_fault, expected_catalog, expected_circulant_catalog
from .errors import InvariantViolation, SpecError
from .graphs import (
    CayleyGraph,
    Eigensystem,
    FamilyLabel,
    IntersectionArray,
    check_distance_regular,
    detect_family,
    imprimitivity,
    spectrum,
)
from .groups import (
    AbelianGroup,
    GroupElement,
    aut_classes,
    check_orbit_bits,
    format_element,
    make_group,
    maximal_subgroups,
)

MAX_SUBSETS = 1 << 22


# ---------------------------------------------------------------------------
# enumeration


def inverse_pair_basis(group: AbelianGroup) -> Tuple[Tuple[int, ...], ...]:
    """The {g,-g} orbits of G\\{0} as index tuples, ordered by least member.

    Involutions give singletons.  Inverse-closed subsets of G\\{0} are
    exactly the unions of these orbits, so bitmasks over the basis
    enumerate the whole search space once each.
    """
    neg = group.neg_table()
    orbits = []
    seen = set()
    for i in range(1, group.order):
        j = int(neg[i])
        if min(i, j) in seen:
            continue
        seen.add(min(i, j))
        orbits.append(tuple(sorted({i, j})))
    return tuple(orbits)


def _mask_indices(basis, mask: int) -> List[int]:
    return [i for j in range(len(basis)) if mask >> j & 1 for i in basis[j]]


# ---------------------------------------------------------------------------
# Gray-code screen

HIGH_BITS = 12
# |G| bound of the int8 screen: B <= 63 orbits (int64 ids) give |G| <= 2B + 1 <= 127
INT8_ORDER = 127
# searches of fewer sets run in process whatever the worker count: on 2
# cores, two spawned workers (about 0.25 s to start) lost at 2^25 sets,
# tied at 2^26 and won from 2^27 on (CHANGES.md)
SPAWN_SUBSETS = 1 << 27


def _low_bits(B: int) -> int:
    """Orbit bits walked in Gray order, L = B - min(B, HIGH_BITS): the top
    bits of an id are its prefix (its column), and the walk takes 2^L
    steps over every column."""
    return max(B - HIGH_BITS, 0)


class _ScanTables:
    """Per-process immutable arrays driving the Gray-code screen.

    The screen keeps one row per {g,-g} orbit: row 0 is the zero element
    and row j + 1 is orbit j of `inverse_pair_basis`, read at its least
    member rep_{j+1}.  Every set in the search space is inverse-closed, so
    its indicator and conv(S) are constant on each orbit.
    """

    def __init__(self, moduli: Tuple[int, ...]):
        group = make_group(moduli)
        basis = inverse_pair_basis(group)
        B = len(basis)
        add = group.add_table()
        row_of = np.zeros(group.order, dtype=np.intp)
        for j, orb in enumerate(basis):
            row_of[list(orb)] = j + 1
        reps = [0] + [orb[0] for orb in basis]
        # self_conv[j] = {row r: #{(x, y) in o_j^2 : x + y = rep_r}}, the
        # o_j * o_j term of every update; it has at most three entries.  It
        # is read at representatives only: the count at -rep_r is equal.
        self_conv = []
        for orb in basis:
            counts: Counter = Counter(int(add[x, y]) for x in orb for y in orb)
            self_conv.append(
                tuple(sorted((int(row_of[g]), c) for g, c in counts.items() if reps[row_of[g]] == g))
            )
        outside_masks = []
        for sub in maximal_subgroups(group):
            members = set(sub.indices)
            mask = 0
            for j, orb in enumerate(basis):
                if orb[0] not in members:
                    mask |= 1 << j
            outside_masks.append(mask)
        self.group = group
        self.basis = basis
        self.B = B
        # gather[r, x]: the row of rep_r - x
        self.gather = row_of[group.sub_table()[reps]]
        self.self_conv = tuple(self_conv)
        self.outside_masks = tuple(outside_masks)


@lru_cache(maxsize=8)
def _tables(moduli: Tuple[int, ...]) -> _ScanTables:
    return _ScanTables(moduli)


def _cross(tab: _ScanTables, ind: np.ndarray, j: int) -> np.ndarray:
    """2 * (o_j * T) per column of `ind` (the sets T, on orbit rows), where
    (o_j * T)[g] is the sum over x in o_j of T[g - x], read at g = rep_r
    for row r.  Entries are at most 2 * |o_j| <= 4."""
    orb = tab.basis[j]
    out = ind[tab.gather[:, orb[0]]]
    if len(orb) == 2:
        out += ind[tab.gather[:, orb[1]]]
    out *= 2
    return out


def _orbit_delta(tab: _ScanTables, ind: np.ndarray, j: int) -> np.ndarray:
    """conv(T + o_j) - conv(T) per column, on orbit rows, for the sets T in
    `ind` (o_j not among them): 2 * (o_j * T) + o_j * o_j."""
    out = _cross(tab, ind, j)
    for r, count in tab.self_conv[j]:
        out[r] += count
    return out


def _screen(tab: _ScanTables, lo: int, hi: int) -> Tuple[int, np.ndarray]:
    """(connected count, sorted ids of connected candidates whose
    first-level counts are constant) over the Gray steps lo <= t < hi of
    the walk, 0 <= lo <= hi <= 2^L, in every column: the ids
    (prefix << L) | gray(t) for every prefix, gray(t) = t ^ (t >> 1).

    Both conditions are necessary for distance-regularity: conv(S)[g] is the
    number of common neighbours of 0 and g (a_1 on S itself, c_2 on the
    nonzero elements it covers outside itself).  Each prefix is one column
    of `conv`, on the B + 1 orbit rows: conv is constant on S (or on its
    coverage ring) iff it is constant on their orbit representatives.

    S splits into its column's high orbits H, fixed for the whole walk, and
    the low orbits Lo, shared by every column, so conv(S) = conv(H) +
    2 (H * Lo) + conv(Lo).  The walk toggles one low orbit o_j per step, in
    Gray order, and moves every column by D_j = 2 (o_j * H), built once,
    plus the column-independent 2 (o_j * Lo) + o_j * o_j.  A range starts
    by adding the low orbits of gray(lo) one at a time, by the same
    updates.  Every count is at most |S| < |G| <= INT8_ORDER, so the walk
    runs in int8.
    """
    n = tab.group.order
    if n > INT8_ORDER:
        raise InvariantViolation(
            f"the int8 screen needs |G| <= {INT8_ORDER}, got {n}",
            witness={"order": n, "bound": INT8_ORDER},
        )
    L = _low_bits(tab.B)
    if not 0 <= lo <= hi <= 1 << L:
        raise InvariantViolation(
            f"step range [{lo}, {hi}) is not within the 2^{L} steps of the walk",
            witness={"lo": lo, "hi": hi, "steps": 1 << L},
        )
    prefixes = np.arange(1 << (tab.B - L), dtype=np.int64)
    ind = np.zeros((tab.B + 1, len(prefixes)), dtype=np.int8)
    conv = np.zeros_like(ind)
    for j in range(L, tab.B):
        bit = ((prefixes >> (j - L)) & 1).astype(np.int8)
        conv += _orbit_delta(tab, ind, j) * bit
        ind[j + 1] = bit
    cross = np.empty((L,) + ind.shape, dtype=np.int8)
    for j in range(L):
        cross[j] = _cross(tab, ind, j)
    # on the high rows, conv & and_mask is conv on H and 0 elsewhere, and
    # conv | or_mask is conv on H and INT8_ORDER (above any count) elsewhere
    and_mask = -ind[L + 1 :]
    or_mask = ~and_mask & np.int8(INT8_ORDER)
    # inside_high[m, c]: the high orbits of prefix c all lie in maximal
    # subgroup m; S is disconnected iff that also holds for its low orbits.
    inside_high = np.array(
        [(prefixes & (mask >> L)) == 0 for mask in tab.outside_masks], dtype=bool
    ).reshape(len(tab.outside_masks), len(prefixes))
    # conn_of[inside]: the connected columns when exactly the subgroups in
    # `inside` contain Lo, and their count
    conn_of: Dict[Tuple[int, ...], Tuple[np.ndarray, int]] = {}
    low_ind = np.zeros(tab.B + 1, dtype=np.int8)
    low = lo ^ (lo >> 1)
    for j in range(L):
        if low >> j & 1:
            conv += cross[j]
            conv += _orbit_delta(tab, low_ind, j)[:, None]
            low_ind[j + 1] = 1
    connected = 0
    found = []
    for t in range(lo, hi):
        if t > lo:
            j = (t & -t).bit_length() - 1
            low ^= 1 << j
            if low >> j & 1:
                conv += cross[j]
                conv += _orbit_delta(tab, low_ind, j)[:, None]
                low_ind[j + 1] = 1
            else:
                low_ind[j + 1] = 0
                conv -= cross[j]
                conv -= _orbit_delta(tab, low_ind, j)[:, None]
        inside = tuple(m for m, mask in enumerate(tab.outside_masks) if not low & mask)
        if inside not in conn_of:
            conn = ~inside_high[list(inside)].any(axis=0)
            conn_of[inside] = conn, int(conn.sum())
        conn, count = conn_of[inside]
        connected += count
        # conv is constant on S iff max <= min there; an empty S reads
        # max 0 and min INT8_ORDER, so it is vacuously constant
        top = np.maximum.reduce(conv[L + 1 :] & and_mask, axis=0, initial=0)
        bottom = np.minimum.reduce(conv[L + 1 :] | or_mask, axis=0, initial=INT8_ORDER)
        if low:
            on_low = conv[np.flatnonzero(low_ind)]
            np.maximum(top, on_low.max(axis=0), out=top)
            np.minimum(bottom, on_low.min(axis=0), out=bottom)
        cols = np.flatnonzero(conn & (top <= bottom))
        if not len(cols):
            continue
        c = conv[:, cols]
        covered = ((ind[:, cols] | low_ind[:, None]) == 0) & (c > 0)
        covered[0] = False
        # the same max <= min test on the coverage ring; an empty ring
        # (max 0, min INT8_ORDER) is vacuously constant
        top = np.where(covered, c, 0).max(axis=0)
        bottom = np.where(covered, c, INT8_ORDER).min(axis=0)
        keep = cols[top <= bottom]
        found.append((prefixes[keep] << L) | low)
    ids = np.sort(np.concatenate(found)) if found else np.zeros(0, dtype=np.int64)
    return connected, ids


def _scan_range(args) -> Tuple[int, np.ndarray]:
    """Worker body: (moduli, lo, hi) -> (connected count, sorted ids of the
    screen's survivors) over the Gray steps lo <= t < hi.  It makes no
    Aut(G) call, so a worker never builds the automorphism tables.

    Pure over immutable tables, so any partition of the 2^L steps into
    ranges yields the same merged result.
    """
    moduli, lo, hi = args
    return _screen(_tables(tuple(moduli)), lo, hi)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class DRGRecord:
    """One Aut(G)-class of distance-regular connection sets."""

    connection: Tuple[GroupElement, ...]  # canonical representative, sorted
    family: FamilyLabel
    array: IntersectionArray
    eigensystem: Eigensystem
    bipartite: bool
    antipodal: bool
    primitive: bool
    members: Tuple[Tuple[GroupElement, ...], ...]

    @property
    def count(self) -> int:
        return len(self.members)

    def to_dict(self, names: Dict[Tuple[int, ...], str]) -> dict:
        """names maps the coordinates of each group element to its
        format_element string (`_element_names`)."""
        return {
            "connection": [names[e.coords] for e in self.connection],
            "family": self.family.kind,
            "parameters": dict(self.family.params),
            "intersection_array": self.array.to_dict(),
            "spectrum": self.eigensystem.to_dict(),
            "flags": {
                "bipartite": self.bipartite,
                "antipodal": self.antipodal,
                "primitive": self.primitive,
            },
            "count": self.count,
            "members": [[names[e.coords] for e in m] for m in self.members],
        }


@dataclass(frozen=True)
class ClassificationReport:
    group: AbelianGroup
    total_sets: int
    connected_sets: int
    screened_sets: int
    drg_count: int
    records: Tuple[DRGRecord, ...]
    families: Tuple[Tuple[str, int], ...]
    anomalies: Tuple[DRGRecord, ...]
    elapsed: float

    def drg_multiset(self) -> List[Tuple[frozenset, str]]:
        """Every distance-regular connection set with its family label,
        orbits expanded, ordered by set."""
        out = []
        for rec in self.records:
            for m in rec.members:
                out.append((frozenset(m), str(rec.family)))
        return sorted(out, key=lambda t: (len(t[0]), sorted(e.coords for e in t[0])))

    def to_dict(self) -> dict:
        """Run parameters (workers, timing) are deliberately left out so
        equal searches serialize identically."""
        names = _element_names(self.group)
        return {
            "group": str(self.group),
            "moduli": list(self.group.moduli),
            "subsets": self.total_sets,
            "connected": self.connected_sets,
            "screened": self.screened_sets,
            "drg": self.drg_count,
            "families": dict(self.families),
            "anomalies": [rec.to_dict(names) for rec in self.anomalies],
            "records": [rec.to_dict(names) for rec in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def summary_rows(self) -> List[Tuple[str, str]]:
        """The summary as (label, value) rows, without the run's wall time."""
        fam = ", ".join(f"{k}={v}" for k, v in self.families) or "none"
        return [
            ("group", str(self.group)),
            ("subsets", str(self.total_sets)),
            ("connected", str(self.connected_sets)),
            ("DRG", str(self.drg_count)),
            ("families", fam),
            ("anomalies", str(len(self.anomalies))),
        ]


def aligned_rows(rows: Sequence[Tuple[str, str]]) -> str:
    """One "label  value" line per row, labels padded to a common width."""
    width = max(len(k) for k, _ in rows)
    return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _sorted_element_tuple(group: AbelianGroup, indices: Sequence[int]) -> Tuple[GroupElement, ...]:
    els = group.elements()
    return tuple(els[i] for i in sorted(indices))


def _element_names(group: AbelianGroup) -> Dict[Tuple[int, ...], str]:
    """format_element of every element, keyed by its coordinates: a
    report formats each element once, not once per member it is in."""
    return {g.coords: format_element(g) for g in group.elements()}


def _formatted(conn) -> List[str]:
    """A connection set as its formatted elements, in sorted order."""
    return [format_element(e) for e in sorted(conn)]


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):  # Linux: the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def classify_group(
    group: AbelianGroup, workers: int = 1, max_subsets: int = MAX_SUBSETS
) -> ClassificationReport:
    """Scan every inverse-closed subset of G\\{0} and report the
    distance-regular ones, grouped by Aut(G)-class.

    With `workers` > 1 and at least `SPAWN_SUBSETS` subsets, spawned
    workers, at most one per usable CPU, walk equal ranges of the Gray
    steps; smaller searches run in process.  The report is the same either
    way."""
    import time

    if workers < 1:
        raise SpecError("worker count must be at least 1")
    basis = inverse_pair_basis(group)
    total = 1 << len(basis)
    if total > max_subsets:
        raise SpecError(
            f"2^{len(basis)} connection sets over {group} exceed the limit {max_subsets};"
            " raise max_subsets explicitly"
        )
    check_orbit_bits(group)
    t0 = time.perf_counter()
    # workers take equal ranges of the 2^L Gray steps, each over every column;
    # a spawn pool starts one interpreter per range submitted, so the count is
    # capped at the CPUs this process may use
    steps = 1 << _low_bits(len(basis))
    workers = min(workers, steps, _usable_cpus()) if total >= SPAWN_SUBSETS else 1
    bounds = [steps * w // workers for w in range(workers + 1)]
    jobs = [(group.moduli, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    if workers == 1:
        results = [_scan_range(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            results = list(pool.map(_scan_range, jobs))
    ids = np.sort(np.concatenate([r[1] for r in results]))
    survivors = [sorted(_mask_indices(basis, sid)) for sid in ids.tolist()]

    records = []
    classes = sorted(aut_classes(group, survivors), key=lambda c: (len(c[0]), c[0]))
    for canon, members, expected in classes:
        conn = _sorted_element_tuple(group, canon)
        # sigma in Aut(G) maps Cay(G, S) onto Cay(G, sigma S), so one exact
        # check decides the class; the screen keeps every DRG set, so every
        # image of a DRG class must have survived it
        graph = CayleyGraph(group, conn)
        check = check_distance_regular(graph)
        if not check.ok:
            continue
        found = len(members)
        if found != expected:
            raise InvariantViolation(
                f"Aut(G)-class of {conn} has {found} members, its orbit has {expected}",
                witness={
                    "connection": [format_element(e) for e in conn],
                    "expected": expected,
                    "found": found,
                },
            )
        info = imprimitivity(graph, check)
        records.append(
            DRGRecord(
                connection=conn,
                family=detect_family(graph, check),
                array=check.array,
                eigensystem=spectrum(graph),
                bipartite=info.bipartite,
                antipodal=info.antipodal,
                primitive=info.primitive,
                # index order is the elements' coordinate order
                members=tuple(_sorted_element_tuple(group, s) for s in sorted(survivors[i] for i in members)),
            )
        )
    fam_counts = Counter()
    for rec in records:
        fam_counts[str(rec.family)] += rec.count
    return ClassificationReport(
        group=group,
        total_sets=total,
        connected_sets=sum(r[0] for r in results),
        screened_sets=len(survivors),
        drg_count=sum(rec.count for rec in records),
        records=tuple(records),
        families=tuple(sorted(fam_counts.items())),
        anomalies=tuple(rec for rec in records if rec.family.kind == "none"),
        elapsed=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# theorem diffs


@dataclass(frozen=True)
class CatalogDiff:
    """Multiset comparison between a classification run and the expected
    catalog; empty on both sides means the statement is verified."""

    group: AbelianGroup
    report: ClassificationReport
    expected_count: int
    found_count: int
    missing: Tuple[Tuple[frozenset, str], ...]
    unexpected: Tuple[Tuple[frozenset, str], ...]

    @property
    def empty(self) -> bool:
        return not self.missing and not self.unexpected

    @staticmethod
    def _side(entries) -> list:
        return [{"connection": _formatted(c), "family": label} for c, label in entries]

    def to_dict(self) -> dict:
        return {
            "group": str(self.group),
            "expected": self.expected_count,
            "found": self.found_count,
            "missing": self._side(self.missing),
            "unexpected": self._side(self.unexpected),
            "verified": self.empty,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _diff_against(report: ClassificationReport, catalog: Sequence[CatalogEntry]) -> CatalogDiff:
    expected: Dict[frozenset, str] = {}
    for entry in catalog:
        if entry.connection in expected:
            raise InvariantViolation(
                "expected catalog lists a connection set twice",
                witness={"connection": _formatted(entry.connection)},
            )
        expected[entry.connection] = str(entry.label)
    found: Dict[frozenset, str] = {}
    for conn, label in report.drg_multiset():
        if conn in found:
            raise InvariantViolation(
                "classification reported a connection set twice",
                witness={"connection": _formatted(conn)},
            )
        found[conn] = label
    order = lambda t: (len(t[0]), sorted(e.coords for e in t[0]))
    missing = sorted(
        ((c, l) for c, l in expected.items() if found.get(c) != l), key=order
    )
    unexpected = sorted(
        ((c, l) for c, l in found.items() if expected.get(c) != l), key=order
    )
    return CatalogDiff(
        group=report.group,
        report=report,
        expected_count=len(expected),
        found_count=len(found),
        missing=tuple(missing),
        unexpected=tuple(unexpected),
    )


def verify_main_theorem(
    group: AbelianGroup, workers: int = 1, max_subsets: int = MAX_SUBSETS
) -> CatalogDiff:
    """Exhaustively classify Z_n + Z_p and diff against the expected
    families (complete, multipartite, crown, subgroup-line unions).  The
    shape and the subset limit are refused before the catalog is built."""
    fault = catalog_shape_fault(group)
    if fault:
        raise SpecError(fault)
    report = classify_group(group, workers, max_subsets)
    return _diff_against(report, expected_catalog(group))


def verify_circulant_theorem(
    n: int, workers: int = 1, max_subsets: int = MAX_SUBSETS
) -> CatalogDiff:
    """Exhaustively classify Z_n and diff against the five circulant
    families (cycle, complete, multipartite, crown, Paley).  The subset
    limit and the 63 orbit bits of a subset id bound n."""
    if n < 1:
        raise SpecError("circulant verification needs n >= 1")
    report = classify_group(make_group([n]), workers, max_subsets)
    return _diff_against(report, expected_circulant_catalog(n))


# ---------------------------------------------------------------------------
# nonexistence assertions


@dataclass(frozen=True)
class NonexistenceReport:
    """Negative assertions over a finished classification: no antipodal
    non-bipartite diameter-3 set, no antipodal bipartite diameter-4 set,
    and primitive implies complete unless both invariants coincide."""

    group: AbelianGroup
    records_checked: int
    primitive_exempt: bool

    def to_dict(self) -> dict:
        return {
            "group": str(self.group),
            "records_checked": self.records_checked,
            "antipodal_nonbipartite_d3": 0,
            "antipodal_bipartite_d4": 0,
            "primitive_noncomplete": 0,
            "primitive_exempt": self.primitive_exempt,
            "ok": True,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def nonexistence_report(report: ClassificationReport) -> NonexistenceReport:
    """Check the classification output for sets the theory rules out;
    finding one is a contradiction, not a result, and trips the bug trap."""
    group = report.group
    if catalog_shape_fault(group):
        raise SpecError("nonexistence assertions apply to Z_n + Z_p with p an odd prime dividing n")
    exempt = group.moduli[0] == group.moduli[1]
    for rec in report.records:
        if rec.antipodal and not rec.bipartite and rec.array.d == 3:
            trap = "antipodal non-bipartite diameter-3"
        elif rec.antipodal and rec.bipartite and rec.array.d == 4:
            trap = "antipodal bipartite diameter-4"
        elif not exempt and rec.primitive and rec.family.kind != "complete":
            trap = "primitive non-complete"
        else:
            continue
        raise InvariantViolation(
            f"{trap} set survived: {rec.to_dict(_element_names(group))}",
            witness={
                "connection": _formatted(rec.connection),
                "intersection_array": rec.array.to_dict(),
            },
        )
    return NonexistenceReport(
        group=group,
        records_checked=len(report.records),
        primitive_exempt=exempt,
    )
