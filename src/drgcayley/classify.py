"""Exhaustive classification of distance-regular Cayley graphs.

The search space over a group G is the family of inverse-closed subsets
of G\\{0}, indexed by bitmasks over the {g,-g} orbit basis.  Candidates
pass three exact stages: a maximal-subgroup containment test for
connectivity, a vectorized first-level screen (common-neighbour counts
must be constant on the set and on its coverage ring), and the full
distance-regularity check.  The screen arithmetic stays integral inside
float32 matmuls, so it can only over-approximate the answer set, never
drop a graph; the final verdict always comes from the exact check.

Subset ranges split statically across worker processes and the report is
assembled from the merged verdicts alone, which keeps its serialized
form byte-identical for any worker count.
"""

from __future__ import annotations

import json
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from .constructions import CatalogEntry, expected_catalog, expected_circulant_catalog
from .errors import InvariantViolation, SpecError
from .graphs import (
    CayleyGraph,
    Eigensystem,
    FamilyLabel,
    IntersectionArray,
    _is_odd_prime,
    check_distance_regular,
    detect_family,
    imprimitivity,
    spectrum,
)
from .groups import (
    AbelianGroup,
    GroupElement,
    canonicalize_connection_set,
    format_element,
    make_group,
    maximal_subgroups,
    orbit_size,
)

MAX_SUBSETS = 1 << 22
SCAN_CHUNK = 1 << 15


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


def connection_set_count(group: AbelianGroup) -> int:
    return 1 << len(inverse_pair_basis(group))


def _set_of_mask(group: AbelianGroup, basis, mask: int) -> frozenset:
    return frozenset(
        group.from_index(i) for j in range(len(basis)) if mask >> j & 1 for i in basis[j]
    )


def enumerate_connection_sets(group: AbelianGroup, limit: int = MAX_SUBSETS) -> Iterator[frozenset]:
    """All inverse-closed subsets of G\\{0}, one frozenset per bitmask,
    in increasing mask order."""
    basis = inverse_pair_basis(group)
    total = 1 << len(basis)
    if total > limit:
        raise SpecError(
            f"{total} connection sets over {group} exceed the limit {limit}; raise it explicitly"
        )
    for mask in range(total):
        yield _set_of_mask(group, basis, mask)


# ---------------------------------------------------------------------------
# batched scan


class _ScanTables:
    """Per-process immutable arrays driving the vectorized screen."""

    def __init__(self, moduli: Tuple[int, ...]):
        group = make_group(moduli)
        basis = inverse_pair_basis(group)
        n, B = group.order, len(basis)
        if group.index(group.zero) != 0:
            raise InvariantViolation("zero must sit at element index 0")
        add = group.add_table()
        pairs = [(j, k) for j in range(B) for k in range(j, B)]
        # pair_sums[(j<=k), g] counts ordered (x, y) with x in o_j, y in o_k
        # (both orders when j < k) and x + y = g; conv(S)[g] is then a
        # quadratic form in the mask bits.  Entries stay below 2^24, so
        # float32 matmuls reproduce them exactly.
        pair_sums = np.zeros((len(pairs), n), dtype=np.float32)
        for pi, (j, k) in enumerate(pairs):
            w = 1 if j == k else 2
            for x in basis[j]:
                for y in basis[k]:
                    pair_sums[pi, add[x, y]] += w
        orbit_mat = np.zeros((B, n), dtype=np.float32)
        for j, orb in enumerate(basis):
            for i in orb:
                orbit_mat[j, i] = 1
        outside_masks = []
        for sub in maximal_subgroups(group):
            members = set(sub.indices())
            mask = 0
            for j, orb in enumerate(basis):
                if orb[0] not in members:
                    mask |= 1 << j
            outside_masks.append(mask)
        self.group = group
        self.basis = basis
        self.B = B
        self.pair_j = np.array([j for j, _ in pairs], dtype=np.int64)
        self.pair_k = np.array([k for _, k in pairs], dtype=np.int64)
        self.pair_sums = pair_sums
        self.orbit_mat = orbit_mat
        self.outside_masks = tuple(outside_masks)


_TABLES: Dict[Tuple[int, ...], _ScanTables] = {}


def _tables(moduli: Tuple[int, ...]) -> _ScanTables:
    tab = _TABLES.get(moduli)
    if tab is None:
        tab = _TABLES[moduli] = _ScanTables(moduli)
    return tab


def _screen_chunk(tab: _ScanTables, ids: np.ndarray) -> np.ndarray:
    """Ids of connected candidates whose first-level counts are constant.

    Both conditions are necessary for distance-regularity: conv[s] is the
    number of common neighbours of 0 and s (a_1 on the set itself, c_2 on
    the nonzero elements it covers outside itself).
    """
    ok = np.ones(len(ids), dtype=bool)
    for mask in tab.outside_masks:
        ok &= (ids & mask) != 0
    ids = ids[ok]
    if not len(ids):
        return ids
    bits = ((ids[:, None] >> np.arange(tab.B, dtype=np.int64)) & 1).astype(np.float32)
    conv = (bits[:, tab.pair_j] * bits[:, tab.pair_k]) @ tab.pair_sums
    conv = conv.astype(np.int32)
    on = (bits @ tab.orbit_mat) > 0
    off = ~on
    off[:, 0] = False
    covered = off & (conv > 0)
    big = np.int32(1 << 30)
    a_hi = np.where(on, conv, -1).max(axis=1)
    a_lo = np.where(on, conv, big).min(axis=1)
    c_hi = np.where(covered, conv, -1).max(axis=1)
    c_lo = np.where(covered, conv, big).min(axis=1)
    keep = (a_hi == np.where(a_lo == big, -1, a_lo)) & (
        c_hi == np.where(c_lo == big, -1, c_lo)
    )
    return ids[keep]


def _scan_range(args) -> Tuple[int, int, List[int]]:
    """Worker body: (moduli, lo, hi, use_aut) -> (connected, survivors, drg ids).

    Pure over immutable tables, so any static partition of the id space
    yields the same merged result.
    """
    moduli, lo, hi, use_aut = args
    tab = _tables(tuple(moduli))
    group, basis = tab.group, tab.basis
    connected = 0
    survivors = 0
    drg_ids: List[int] = []
    verdicts: Dict[Tuple[int, ...], bool] = {}
    for start in range(lo, hi, SCAN_CHUNK):
        ids = np.arange(start, min(start + SCAN_CHUNK, hi), dtype=np.int64)
        conn_ok = np.ones(len(ids), dtype=bool)
        for mask in tab.outside_masks:
            conn_ok &= (ids & mask) != 0
        connected += int(conn_ok.sum())
        for sid in _screen_chunk(tab, ids):
            sid = int(sid)
            survivors += 1
            indices = [i for j in range(tab.B) if sid >> j & 1 for i in basis[j]]
            if use_aut:
                canon = canonicalize_connection_set(group, indices)
                verdict = verdicts.get(canon)
                if verdict is None:
                    graph = CayleyGraph(group, [group.from_index(i) for i in canon])
                    verdict = verdicts[canon] = check_distance_regular(graph).ok
            else:
                graph = CayleyGraph(group, [group.from_index(i) for i in indices])
                verdict = check_distance_regular(graph).ok
            if verdict:
                drg_ids.append(sid)
    return connected, survivors, drg_ids


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class SearchSpec:
    group: AbelianGroup
    use_aut_reduction: bool = True
    workers: int = 1
    max_subsets: int = MAX_SUBSETS


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

    def to_dict(self) -> dict:
        return {
            "connection": [format_element(e) for e in self.connection],
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
            "members": [[format_element(e) for e in m] for m in self.members],
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
    workers: int
    aut_reduction: bool
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
        return {
            "group": str(self.group),
            "moduli": list(self.group.moduli),
            "subsets": self.total_sets,
            "connected": self.connected_sets,
            "screened": self.screened_sets,
            "drg": self.drg_count,
            "families": dict(self.families),
            "anomalies": [rec.to_dict() for rec in self.anomalies],
            "records": [rec.to_dict() for rec in self.records],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def summary_text(self) -> str:
        fam = ", ".join(f"{k}={v}" for k, v in self.families) or "none"
        rows = [
            ("group", str(self.group)),
            ("subsets", str(self.total_sets)),
            ("connected", str(self.connected_sets)),
            ("DRG", str(self.drg_count)),
            ("families", fam),
            ("anomalies", str(len(self.anomalies))),
            ("wall time", f"{self.elapsed:.2f}s"),
        ]
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k:<{width}}  {v}" for k, v in rows)


def _sorted_element_tuple(group: AbelianGroup, indices: Sequence[int]) -> Tuple[GroupElement, ...]:
    return tuple(group.from_index(i) for i in sorted(indices))


def classify_group(spec: SearchSpec) -> ClassificationReport:
    """Scan every inverse-closed subset of G\\{0} and report the
    distance-regular ones, grouped by Aut(G)-class."""
    import time

    if spec.workers < 1:
        raise SpecError("worker count must be at least 1")
    group = spec.group
    basis = inverse_pair_basis(group)
    total = 1 << len(basis)
    if total > spec.max_subsets:
        raise SpecError(
            f"{total} connection sets over {group} exceed the limit {spec.max_subsets};"
            " raise max_subsets explicitly"
        )
    t0 = time.perf_counter()
    workers = min(spec.workers, total)
    bounds = [total * w // workers for w in range(workers + 1)]
    jobs = [
        (group.moduli, bounds[w], bounds[w + 1], spec.use_aut_reduction)
        for w in range(workers)
        if bounds[w] < bounds[w + 1]
    ]
    if workers == 1:
        results = [_scan_range(jobs[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers, mp_context=get_context("spawn")) as pool:
            results = list(pool.map(_scan_range, jobs))
    connected = sum(r[0] for r in results)
    screened = sum(r[1] for r in results)
    drg_ids = sorted(i for r in results for i in r[2])

    by_canon: Dict[Tuple[int, ...], List[Tuple[GroupElement, ...]]] = {}
    for sid in drg_ids:
        indices = [i for j in range(len(basis)) if sid >> j & 1 for i in basis[j]]
        canon = canonicalize_connection_set(group, indices)
        by_canon.setdefault(canon, []).append(_sorted_element_tuple(group, indices))
    records = []
    for canon in sorted(by_canon, key=lambda c: (len(c), c)):
        conn = _sorted_element_tuple(group, canon)
        # the DRG family is Aut(G)-invariant, so a class is a whole orbit
        found, expected = len(by_canon[canon]), orbit_size(group, canon)
        if found != expected:
            raise InvariantViolation(
                f"Aut(G)-class of {conn} has {found} members, its orbit has {expected}",
                witness={
                    "connection": [format_element(e) for e in conn],
                    "expected": expected,
                    "found": found,
                },
            )
        graph = CayleyGraph(group, conn)
        check = check_distance_regular(graph)
        if not check.ok or check.array is None:
            raise InvariantViolation(f"scan reported a non-DRG set {conn}")
        info = imprimitivity(graph, check)
        primitive = check.array.d <= 1 or (not info.bipartite and not info.antipodal)
        records.append(
            DRGRecord(
                connection=conn,
                family=detect_family(graph, check),
                array=check.array,
                eigensystem=spectrum(graph),
                bipartite=info.bipartite,
                antipodal=info.antipodal,
                primitive=primitive,
                members=tuple(sorted(by_canon[canon])),
            )
        )
    fam_counts = Counter()
    for rec in records:
        fam_counts[str(rec.family)] += rec.count
    return ClassificationReport(
        group=group,
        total_sets=total,
        connected_sets=connected,
        screened_sets=screened,
        drg_count=len(drg_ids),
        records=tuple(records),
        families=tuple(sorted(fam_counts.items())),
        anomalies=tuple(rec for rec in records if rec.family.kind == "none"),
        workers=workers,
        aut_reduction=spec.use_aut_reduction,
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
        return [
            {"connection": [format_element(e) for e in sorted(c)], "family": label}
            for c, label in entries
        ]

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
    expected = {entry.connection: str(entry.label) for entry in catalog}
    if len(expected) != len(catalog):
        raise InvariantViolation("expected catalog lists a connection set twice")
    found = dict()
    for conn, label in report.drg_multiset():
        if conn in found:
            raise InvariantViolation("classification reported a connection set twice")
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


def _run_spec(
    group: AbelianGroup, workers: int, use_aut_reduction: bool, max_subsets: int
) -> ClassificationReport:
    return classify_group(
        SearchSpec(
            group=group,
            use_aut_reduction=use_aut_reduction,
            workers=workers,
            max_subsets=max_subsets,
        )
    )


def verify_main_theorem(
    group: AbelianGroup,
    workers: int = 1,
    use_aut_reduction: bool = True,
    max_subsets: int = MAX_SUBSETS,
) -> CatalogDiff:
    """Exhaustively classify Z_n + Z_p and diff against the expected
    families (complete, multipartite, crown, subgroup-line unions)."""
    catalog = expected_catalog(group)
    report = _run_spec(group, workers, use_aut_reduction, max_subsets)
    return _diff_against(report, catalog)


def verify_circulant_theorem(
    n: int,
    workers: int = 1,
    use_aut_reduction: bool = True,
    max_subsets: int = MAX_SUBSETS,
) -> CatalogDiff:
    """Exhaustively classify Z_n and diff against the five circulant
    families (cycle, complete, multipartite, crown, Paley)."""
    if not 1 <= n <= 33:
        raise SpecError("circulant verification covers 1 <= n <= 33")
    catalog = expected_circulant_catalog(n)
    report = _run_spec(make_group([n]), workers, use_aut_reduction, max_subsets)
    return _diff_against(report, catalog)


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


def nonexistence_report(
    source: Union[AbelianGroup, ClassificationReport],
    workers: int = 1,
    use_aut_reduction: bool = True,
    max_subsets: int = MAX_SUBSETS,
) -> NonexistenceReport:
    """Check the classification output for sets the theory rules out;
    finding one is a contradiction, not a result, and trips the bug trap."""
    if isinstance(source, ClassificationReport):
        report = source
    else:
        report = _run_spec(source, workers, use_aut_reduction, max_subsets)
    group = report.group
    if len(group.moduli) != 2 or not _is_odd_prime(group.moduli[1]) or group.moduli[0] % group.moduli[1]:
        raise SpecError("nonexistence assertions apply to Z_n + Z_p with p an odd prime dividing n")
    exempt = group.moduli[0] == group.moduli[1]
    for rec in report.records:
        if rec.antipodal and not rec.bipartite and rec.array.d == 3:
            raise InvariantViolation(
                f"antipodal non-bipartite diameter-3 set survived: {rec.to_dict()}"
            )
        if rec.antipodal and rec.bipartite and rec.array.d == 4:
            raise InvariantViolation(
                f"antipodal bipartite diameter-4 set survived: {rec.to_dict()}"
            )
        if not exempt and rec.primitive and rec.family.kind != "complete":
            raise InvariantViolation(
                f"primitive non-complete set survived: {rec.to_dict()}"
            )
    return NonexistenceReport(
        group=group,
        records_checked=len(report.records),
        primitive_exempt=exempt,
    )
