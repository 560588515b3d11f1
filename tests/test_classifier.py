"""Exhaustive classification: enumeration, screening soundness, reports."""

import itertools
import json
from dataclasses import replace

import pytest

from drgcayley import constructions
from drgcayley.classify import (
    CatalogDiff,
    ClassificationReport,
    _diff_against,
    _mask_indices,
    classify_group,
    inverse_pair_basis,
    nonexistence_report,
    verify_circulant_theorem,
    verify_main_theorem,
)
from drgcayley.constructions import expected_catalog
from drgcayley.errors import InvariantViolation, SpecError
from drgcayley.graphs import CayleyGraph, IntersectionArray, check_distance_regular
from drgcayley.groups import format_element, make_group

from reference import inverse_closed_sets, neg


# ---------------------------------------------------------------------------
# enumeration


@pytest.mark.parametrize(
    "moduli,orbits",
    [([3, 3], 4), ([6, 3], 9), ([9, 3], 13), ([5, 5], 12), ([12, 3], 18), ([2, 2, 2], 7)],
)
def test_basis_orbit_counts(moduli, orbits):
    g = make_group(moduli)
    basis = inverse_pair_basis(g)
    assert len(basis) == orbits
    covered = sorted(i for orb in basis for i in orb)
    assert covered == list(range(1, g.order))


@pytest.mark.parametrize("moduli", [[3, 3], [8], [2, 2, 2], [10]])
def test_enumeration_is_exactly_the_inverse_closed_family(moduli):
    g = make_group(moduli)
    nonzero = [e for e in g.elements() if not e.is_zero]
    brute = set()
    for r in range(len(nonzero) + 1):
        for combo in itertools.combinations(nonzero, r):
            s = frozenset(combo)
            if all(neg(e) in s for e in s):
                brute.add(s)
    basis = inverse_pair_basis(g)
    listed = [frozenset(map(g.from_index, _mask_indices(basis, m))) for m in range(1 << len(basis))]
    assert len(listed) == len(set(listed))
    assert set(listed) == brute == set(inverse_closed_sets(g))
    assert listed[0] == frozenset()


# ---------------------------------------------------------------------------
# classify_group


def test_classify_z3_z3():
    rep = classify_group(make_group([3, 3]))
    assert rep.total_sets == 16
    assert rep.connected_sets == 11
    assert rep.drg_count == 11
    assert len(rep.records) == 3
    assert dict(rep.families) == {
        "complete(n=9)": 1,
        "multipartite(t=3,m=3)": 4,
        "union-of-order-p-subgroups(p=3,r=2)": 6,
    }
    assert not rep.anomalies


def test_classify_z6_z3():
    rep = classify_group(make_group([6, 3]))
    assert rep.total_sets == 512
    assert rep.drg_count == 12
    fams = dict(rep.families)
    assert fams["complete(n=18)"] == 1
    assert fams["crown(m=9)"] == 1
    assert sum(v for k, v in fams.items() if k.startswith("multipartite")) == 10
    assert not rep.anomalies


def test_classify_z9_z3_complete_and_multipartite_only():
    rep = classify_group(make_group([9, 3]))
    assert rep.total_sets == 8192
    assert rep.drg_count == 9
    kinds = {rec.family.kind for rec in rep.records}
    assert kinds == {"complete", "multipartite"}
    assert not rep.anomalies


def test_classify_z5_z5_line_unions():
    rep = classify_group(make_group([5, 5]))
    assert rep.drg_count == 57
    fams = dict(rep.families)
    assert fams["union-of-order-p-subgroups(p=5,r=2)"] == 15
    assert fams["union-of-order-p-subgroups(p=5,r=3)"] == 20
    assert fams["union-of-order-p-subgroups(p=5,r=4)"] == 15
    for rec in rep.records:
        if rec.family.kind == "union-of-order-p-subgroups":
            assert rec.primitive


def test_classifier_agrees_with_direct_check_everywhere():
    """Ground truth: run the exact test on every single subset."""
    g = make_group([6, 3])
    truth = set()
    for s in inverse_closed_sets(g):
        gr = CayleyGraph(g, s)
        if s and gr.is_connected() and check_distance_regular(gr).ok:
            truth.add(s)
    rep = classify_group(g)
    assert {conn for conn, _ in rep.drg_multiset()} == truth


def test_orbit_collapse_on_records():
    rep = classify_group(make_group([3, 3]))
    by_kind = {rec.family.kind: rec for rec in rep.records}
    multi = by_kind["multipartite"]
    assert multi.count == 4
    assert len({frozenset(m) for m in multi.members}) == 4
    assert tuple(sorted(multi.connection)) == multi.connection


def test_reduction_soundness_and_worker_determinism():
    g = make_group([6, 3])
    base = classify_group(g).to_json()
    two = classify_group(g, workers=2).to_json()
    assert base == two


def test_classify_limits_and_bad_workers():
    with pytest.raises(SpecError):
        classify_group(make_group([12, 3]), max_subsets=1000)
    with pytest.raises(SpecError):
        classify_group(make_group([3, 3]), workers=0)


def test_anomalies_surface_off_theorem_drgs():
    """Z_4+Z_4 carries distance-regular sets outside the catalogued
    families (the 4x4 rook graph among them); they must be reported,
    not silently dropped."""
    g = make_group([4, 4])
    rep = classify_group(g)
    assert rep.anomalies
    assert all(rec.family.kind == "none" for rec in rep.anomalies)
    rook = frozenset(
        e for e in g.elements() if not e.is_zero and (e.coords[0] == 0 or e.coords[1] == 0)
    )
    anomalous_sets = {frozenset(m) for rec in rep.anomalies for m in rec.members}
    assert rook in anomalous_sets
    assert dict(rep.families)["none"] == sum(r.count for r in rep.anomalies)


def test_report_json_shape():
    rep = classify_group(make_group([3, 3]))
    data = json.loads(rep.to_json())
    assert data["group"] == "3,3"
    assert data["subsets"] == 16
    assert data["drg"] == 11
    assert len(data["records"]) == 3
    rec = data["records"][0]
    assert set(rec) == {
        "connection",
        "family",
        "parameters",
        "intersection_array",
        "spectrum",
        "flags",
        "count",
        "members",
    }
    for key in ("workers", "wall", "elapsed"):
        assert key not in json.dumps(data)


# ---------------------------------------------------------------------------
# theorem diffs


@pytest.mark.parametrize("moduli", [[3, 3], [6, 3]])
def test_verify_main_theorem_small(moduli):
    diff = verify_main_theorem(make_group(moduli))
    assert diff.empty
    assert diff.found_count == diff.expected_count
    assert json.loads(diff.to_json())["verified"] is True


def test_verify_main_theorem_rejects_wrong_groups():
    with pytest.raises(SpecError):
        verify_main_theorem(make_group([4, 3]))
    with pytest.raises(SpecError):
        verify_main_theorem(make_group([6, 2]))


def test_verify_main_theorem_refuses_before_building_the_catalog(monkeypatch):
    """The shape and the subset limit are refused before the catalog (its
    subgroup lattice and family labels) is built."""

    def unbuilt(group):
        raise AssertionError("catalog built for a refused search")

    monkeypatch.setattr(constructions, "_catalog", unbuilt)
    with pytest.raises(SpecError, match=r"^2\^1008 connection sets over 672,3 exceed the limit 4194304;"):
        verify_main_theorem(make_group([672, 3]))
    for moduli, message in [
        ([9], "catalog group must be given as Z_n + Z_p"),
        ([6, 2], "second invariant must be an odd prime"),
        ([10, 3], "catalog needs p dividing n"),
    ]:
        with pytest.raises(SpecError) as err:
            verify_main_theorem(make_group(moduli))
        assert str(err.value) == message


def test_diff_flags_missing_and_unexpected():
    g = make_group([3, 3])
    rep = classify_group(g)
    catalog = expected_catalog(g)
    short = catalog[:-1]
    diff = _diff_against(rep, short)
    assert not diff.empty
    assert len(diff.unexpected) == 1
    assert diff.unexpected[0][0] == catalog[-1].connection
    relabel = [replace(e, label=replace(e.label, kind="mystery")) for e in catalog[:1]]
    diff2 = _diff_against(rep, relabel + list(catalog[1:]))
    assert len(diff2.missing) == 1 and len(diff2.unexpected) == 1


def test_diff_duplicate_traps_carry_the_set():
    g = make_group([3, 3])
    rep = classify_group(g)
    catalog = expected_catalog(g)
    with pytest.raises(InvariantViolation) as err:
        _diff_against(rep, list(catalog) + [catalog[0]])
    assert err.value.witness == {
        "connection": [format_element(e) for e in sorted(catalog[0].connection)]
    }
    rec = rep.records[-1]
    twice = replace(rec, members=rec.members + rec.members[:1])
    doubled = replace(rep, records=rep.records[:-1] + (twice,))
    with pytest.raises(InvariantViolation) as err:
        _diff_against(doubled, catalog)
    assert err.value.witness == {"connection": [format_element(e) for e in rec.members[0]]}


@pytest.mark.parametrize(
    "n,families",
    [
        (9, {"complete(n=9)": 1, "cycle(n=9)": 3, "multipartite(t=3,m=3)": 1}),
        (
            10,
            {
                "complete(n=10)": 1,
                "cycle(n=10)": 2,
                "multipartite(t=2,m=5)": 1,
                "multipartite(t=5,m=2)": 1,
                "crown(m=5)": 1,
            },
        ),
        (13, {"complete(n=13)": 1, "cycle(n=13)": 6, "paley(n=13)": 2}),
    ],
)
def test_verify_circulant_examples(n, families):
    diff = verify_circulant_theorem(n)
    assert diff.empty
    assert dict(diff.report.families) == families


def test_verify_circulant_edges_and_domain():
    for n in (1, 2, 34, 45):
        assert verify_circulant_theorem(n).empty
    with pytest.raises(SpecError, match=r"2\^23 connection sets over 46 exceed the limit"):
        verify_circulant_theorem(46)
    with pytest.raises(SpecError):
        verify_circulant_theorem(0)


# ---------------------------------------------------------------------------
# nonexistence assertions


def test_nonexistence_clean_groups():
    rep = classify_group(make_group([6, 3]))
    out = nonexistence_report(rep)
    assert out.to_dict()["ok"] is True
    assert out.records_checked == len(rep.records)
    assert not out.primitive_exempt
    exempt = nonexistence_report(classify_group(make_group([5, 5])))
    assert exempt.primitive_exempt


def test_nonexistence_requires_target_shape():
    rep = classify_group(make_group([10]))
    with pytest.raises(SpecError):
        nonexistence_report(rep)


def _doctored(report: ClassificationReport, old, new) -> ClassificationReport:
    records = tuple(new if r is old else r for r in report.records)
    return replace(report, records=records)


def test_nonexistence_bug_traps():
    rep = classify_group(make_group([6, 3]))
    crown_rec = next(r for r in rep.records if r.family.kind == "crown")
    multi_rec = next(r for r in rep.records if r.family.kind == "multipartite")
    deep = replace(
        crown_rec, array=IntersectionArray((4, 3, 2, 1), (1, 2, 3, 4))
    )
    for old, new in [
        (crown_rec, replace(crown_rec, bipartite=False)),
        (crown_rec, deep),
        (multi_rec, replace(multi_rec, primitive=True)),
    ]:
        with pytest.raises(InvariantViolation) as err:
            nonexistence_report(_doctored(rep, old, new))
        assert err.value.witness == {
            "connection": [format_element(e) for e in new.connection],
            "intersection_array": new.array.to_dict(),
        }
