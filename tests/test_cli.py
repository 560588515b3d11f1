"""CLI surface: parsing, shorthands, exit codes, formats, recheck."""

import json
import time

import numpy as np
import pytest

from drgcayley import graphs
from drgcayley.cli import parse_connection, run
from drgcayley.errors import SpecError
from drgcayley.graphs import CayleyGraph, export_graph6
from drgcayley.groups import make_group, parse_element_set


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def invoke_json(capsys, *argv):
    code, out, _ = invoke(capsys, "--format", "json", *argv)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# check and construct


def test_check_reports_srg(capsys):
    code, out, _ = invoke(capsys, "check", "--group", "3,3", "--set", "1,0;2,0;0,1;0,2")
    assert code == 0
    assert "SRG(9,4,1,2)" in out
    assert "{4,2;1,2}" in out


def test_check_json_payload(capsys):
    code, data = invoke_json(capsys, "check", "--group", "3,3", "--set", "1,0;2,0;0,1;0,2")
    assert code == 0
    assert data["ok"] is True
    assert data["srg"] == [9, 4, 1, 2]
    assert data["family"] == "union-of-order-p-subgroups"
    assert data["intersection_array"] == {"b": [4, 2], "c": [1, 2], "a": [1, 2], "k": [1, 4, 4]}


def test_check_not_inverse_closed_is_usage_error(capsys):
    code, out, err = invoke(capsys, "check", "--group", "6,3", "--set", "1,1")
    assert code == 2
    assert "inverse closed" in err


def test_usage_error_as_json(capsys):
    code, out, _ = invoke(capsys, "--format", "json", "check", "--group", "6,3", "--set", "1,1")
    assert code == 2
    data = json.loads(out)
    assert data["error"] == "usage"


def test_check_non_drg_exits_one(capsys):
    code, out, _ = invoke(capsys, "check", "--group", "8", "--set", "1;7;2;6")
    assert code == 1
    assert "not distance-regular" in out


def test_check_disconnected_exits_one(capsys):
    code, _, err = invoke(capsys, "check", "--group", "9", "--set", "3;6")
    assert code == 1
    assert "not-connected" in err


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2


def test_construct_graph6(capsys):
    g = make_group([5])
    expected = export_graph6(CayleyGraph(g, parse_element_set(g, "1;4")))
    code, out, _ = invoke(capsys, "--format", "graph6", "construct", "--group", "5", "--set", "1;4")
    assert code == 0
    assert out.strip() == expected


def test_graph6_rejected_elsewhere(capsys):
    code, _, err = invoke(capsys, "--format", "graph6", "check", "--group", "5", "--set", "1;4")
    assert code == 2
    assert "graph6" in err


def test_construct_reports_disconnected_without_failing(capsys):
    code, data = invoke_json(capsys, "construct", "--group", "9", "--set", "3;6")
    assert code == 0
    assert data["connected"] is False


# ---------------------------------------------------------------------------
# connection-set shorthands


def test_shorthand_complete():
    g = make_group([6, 3])
    s = parse_connection(g, "complete")
    assert len(s) == 17


def test_shorthand_multipartite(capsys):
    code, out, _ = invoke(capsys, "check", "--group", "6,3", "--set", "multipartite:H=2,0;0,1")
    assert code == 0
    assert "multipartite(t=2,m=9)" in out


def test_shorthand_crown(capsys):
    code, out, _ = invoke(capsys, "check", "--group", "10", "--set", "crown:a=5")
    assert code == 0
    assert "crown(m=5)" in out


def test_crown_shorthand_past_the_subgroup_lattice_bound(capsys):
    """Z_2 x Z_3^6 has too many subgroups to enumerate; its one index-2
    subgroup is a maximal subgroup, found directly."""
    t0 = time.perf_counter()
    code, data = invoke_json(capsys, "check", "--group", "2,3,3,3,3,3,3", "--set", "crown:a=1,0,0,0,0,0,0")
    assert code == 0
    assert data["family"] == "crown" and data["parameters"] == {"m": 729}
    assert data["intersection_array"]["b"] == [728, 727, 1]
    assert time.perf_counter() - t0 < 2.0


def test_crown_shorthand_with_many_halves_fails_fast(capsys):
    t0 = time.perf_counter()
    code, _, err = invoke(capsys, "check", "--group", "2,2,2,2,2,2,2", "--set", "crown:a=1,0,0,0,0,0,0")
    assert code == 2
    assert "64 index-2 subgroups avoid" in err
    assert time.perf_counter() - t0 < 2.0


def test_shorthand_tdlg(capsys):
    code, out, _ = invoke(capsys, "check", "--group", "5,5", "--set", "tdlg:r=3")
    assert code == 0
    assert "SRG(25,12,5,6)" in out


def test_shorthand_errors():
    with pytest.raises(SpecError):
        parse_connection(make_group([9]), "crown:a=3")
    with pytest.raises(SpecError):
        parse_connection(make_group([2, 2, 2]), "crown:a=1,0,0")
    with pytest.raises(SpecError):
        parse_connection(make_group([6, 3]), "tdlg:r=2")
    with pytest.raises(SpecError):
        parse_connection(make_group([5, 5]), "tdlg:r=9")
    with pytest.raises(SpecError):
        parse_connection(make_group([5, 5]), "tdlg:r=x")
    with pytest.raises(SpecError, match="order must be an odd prime"):
        parse_connection(make_group([4, 4]), "tdlg:r=9")
    with pytest.raises(SpecError):
        parse_connection(make_group([6, 3]), "multipartite:H=1,0;0,1")
    with pytest.raises(SpecError):
        parse_connection(make_group([6, 3]), "multipartite:H=0,0")


# ---------------------------------------------------------------------------
# spectrum, schur, krein, dual


def test_spectrum_json(capsys):
    code, data = invoke_json(capsys, "spectrum", "--group", "5,5", "--set", "tdlg:r=3")
    assert code == 0
    eig = data["eigenvalues"]
    assert [e["value_numeric"] for e in eig] == [12.0, 2.0, -3.0]
    assert [e["multiplicity"] for e in eig] == [1, 12, 12]
    assert data["distinct"] == 3


def test_spectrum_precision_flag(capsys):
    code, data = invoke_json(
        capsys, "spectrum", "--group", "13", "--set", "1;3;4;9;10;12", "--precision", "60"
    )
    assert code == 0
    assert data["inputs"]["precision"] == 60
    assert data["distinct"] == 3


def test_spectrum_invariant_violation_carries_its_witness(capsys, monkeypatch):
    true_values = graphs.character_values

    def bent(group, classes):
        values = true_values(group, classes).copy()
        values[0, 0, 0] += 1  # the trivial character now reads k + 1
        return values

    monkeypatch.setattr(graphs, "character_values", bent)
    code, data = invoke_json(capsys, "spectrum", "--group", "5", "--set", "1;4")
    assert code == 3
    assert data["error"] == "invariant"
    assert "trace" in data["message"]
    assert data["witness"] == {"group": [5], "connection": [1, 4], "trace": [1, 0, 0, 0]}


def test_graph_invariant_violation_carries_its_witness(capsys, monkeypatch):
    """C_6 = Cay(Z_6, {1, 5}) is antipodal with antipodal class {0, 3};
    a closure that grows it to the whole group trips the imprimitivity
    trap."""

    def whole_group(group, gens):
        return np.arange(group.order)

    monkeypatch.setattr(graphs, "_closure", whole_group)
    code, data = invoke_json(capsys, "check", "--group", "6", "--set", "1;5")
    assert code == 3
    assert data["error"] == "invariant"
    assert data["witness"] == {"group": [6], "connection": [1, 5], "antipodal_class": [0, 3]}


@pytest.mark.parametrize("precision", ["0", "-3", "19", "1000000"])
def test_spectrum_precision_outside_bounds_is_a_usage_error(capsys, precision):
    t0 = time.perf_counter()
    code, data = invoke_json(capsys, "spectrum", "--group", "5", "--set", "1;4", "--precision", precision)
    assert code == 2
    assert data["error"] == "usage"
    assert "precision" in data["message"]
    assert time.perf_counter() - t0 < 1.0


def test_schur_json(capsys):
    code, data = invoke_json(capsys, "schur", "--group", "5", "--set", "1;4")
    assert code == 0
    assert data["rank"] == 3
    assert data["class_sizes"] == [1, 2, 2]
    assert data["symmetric"] is True


def test_schur_refuses_a_rank_above_the_tensor_bound(capsys):
    # C_512 has a rank-257 distance module: 257^3 structure constants
    t0 = time.perf_counter()
    code, data = invoke_json(capsys, "schur", "--group", "512", "--set", "1;511")
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    assert data["error"] == "usage"
    assert "rank-257" in data["message"]


def test_krein_json(capsys):
    code, data = invoke_json(capsys, "krein", "--group", "3,3", "--set", "1,0;2,0;0,1;0,2")
    assert code == 0
    q = data["q"]
    assert len(q) == 3
    assert all(x >= 0 for plane in q for row in plane for x in row)


def test_dual_json(capsys):
    code, data = invoke_json(capsys, "dual", "--group", "5", "--set", "1;4")
    assert code == 0
    assert len(data["q_polynomial_orderings"]) == 2
    for d in data["dual_graphs"]:
        assert d["intersection_array"]["b"] == [2, 1]


# ---------------------------------------------------------------------------
# design subcommands


def test_design_rds(capsys):
    code, data = invoke_json(
        capsys, "design", "rds", "--group", "2,4", "--set", "0,0;0,1;1,0;1,3",
        "--forbidden", "0,2",
    )
    assert code == 0
    assert data["params"] == {"m": 4, "r": 2, "k": 4, "mu": 2}
    code, data = invoke_json(
        capsys, "design", "rds", "--group", "2,4", "--set", "0,0;0,1", "--forbidden", "0,2"
    )
    assert code == 1
    assert data["ok"] is False


def test_design_pas(capsys):
    code, data = invoke_json(
        capsys, "design", "pas", "--group", "9", "--set", "0;3;6", "--poly", "0,-3,1"
    )
    assert code == 0
    assert data["ok"] is True and data["m"] == 0
    code, data = invoke_json(
        capsys, "design", "pas", "--group", "7", "--set", "1;2;4", "--poly", "0,3,1"
    )
    assert code == 1
    code, _, _ = invoke(capsys, "design", "pas", "--group", "7", "--set", "1", "--poly", "a,b")
    assert code == 2


@pytest.mark.parametrize("poly, level", [
    (",".join(["0"] * 64 + ["1"]), 2**63),  # (Z_2)^64 = 2^63 Z_2
    (",".join(["0"] * 65 + ["1"]), 2**64),
    ("0,9223372036854775808", 2**63),  # a coefficient beyond int64
])
def test_design_pas_levels_beyond_int64(capsys, poly, level):
    code, out, _ = invoke(capsys, "design", "pas", "--group", "2", "--set", "0;1", "--poly", poly)
    assert code == 0
    assert out == f"polynomial addition set confirmed with level {level}\n"
    code, data = invoke_json(capsys, "design", "pas", "--group", "2", "--set", "0;1", "--poly", poly)
    assert code == 0
    assert data["ok"] is True and data["m"] == level


def test_design_pas_over_the_work_bound_fails_fast(capsys):
    # x^5000 on Z_127 with D = {1..63}: 5000 * 127^2 > MAX_PAS_WORK
    dset = ";".join(str(i) for i in range(1, 64))
    poly = ",".join(["0"] * 5000 + ["1"])
    start = time.perf_counter()
    code, out, err = invoke(capsys, "design", "pas", "--group", "127", "--set", dset, "--poly", poly)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "units of work" in err


def test_design_directions(capsys):
    code, data = invoke_json(capsys, "design", "directions", "--prime", "5",
                             "--points", "0,0;1,2;2,4")
    assert code == 0
    assert data["status"] == "collinear"
    assert data["slopes"] == ["2"]
    code, data = invoke_json(capsys, "design", "directions", "--prime", "3",
                             "--points", "0,0;1,0;0,1")
    assert code == 0
    assert data["status"] == "bound-holds"
    code, _, _ = invoke(capsys, "design", "directions", "--prime", "3", "--points", "0")
    assert code == 2


# ---------------------------------------------------------------------------
# classification commands


def test_classify_json_and_determinism_across_jobs(capsys):
    code, out1, _ = invoke(capsys, "--format", "json", "classify", "--group", "6,3")
    assert code == 0
    code, out2, _ = invoke(capsys, "--format", "json", "classify", "--group", "6,3",
                           "--jobs", "2")
    assert code == 0
    assert out1 == out2
    data = json.loads(out1)
    assert data["drg"] == 12
    assert data["inputs"]["aut_reduction"] is True


def test_classify_text_is_deterministic(capsys):
    code, out, err = invoke(capsys, "classify", "--group", "3,3")
    assert code == 0
    assert "DRG" in out and "11" in out
    assert "wall time" in err and "wall time" not in out


def test_removed_aut_reduction_flag_is_a_usage_error(capsys):
    code, _, _ = invoke(capsys, "classify", "--group", "3,3", "--no-aut-reduction")
    assert code == 2


def test_classify_limit_flag(capsys):
    code, _, err = invoke(capsys, "classify", "--group", "12,3", "--limit", "1000")
    assert code == 2
    assert err == "error (usage): 2^18 connection sets over 12,3 exceed the limit 1000; raise max_subsets explicitly\n"


def test_verify_theorem_cli(capsys):
    code, data = invoke_json(capsys, "verify-theorem", "--group", "3,3")
    assert code == 0
    assert data["verified"] is True
    assert data["nonexistence"]["ok"] is True
    for group in ("4,3", "9"):
        code, _, err = invoke(capsys, "verify-theorem", "--group", group)
        assert code == 2 and err.startswith("error (usage)")


def test_verify_circulant_cli(capsys):
    code, data = invoke_json(capsys, "verify-circulant", "--group", "13")
    assert code == 0
    assert data["verified"] is True
    for group in ("34", "45"):
        code, data = invoke_json(capsys, "verify-circulant", "--group", group)
        assert code == 0 and data["verified"] is True
    for group in ("6,3", "46"):
        code, _, err = invoke(capsys, "verify-circulant", "--group", group)
        assert code == 2 and err.startswith("error (usage)")


def test_verify_circulant_of_the_trivial_group(capsys):
    code, data = invoke_json(capsys, "verify-circulant", "--group", "1")
    assert code == 0
    assert data["verified"] is True


# ---------------------------------------------------------------------------
# recheck


def _save(tmp_path, text, name="report.json"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_recheck_classify_roundtrip(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--format", "json", "classify", "--group", "3,3")
    assert code == 0
    path = _save(tmp_path, out)
    code, out2, _ = invoke(capsys, "recheck", "--input", path)
    assert code == 0
    assert "confirmed" in out2


def test_recheck_check_roundtrip(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--format", "json", "check", "--group", "10",
                          "--set", "crown:a=5")
    assert code == 0
    code, _, _ = invoke(capsys, "recheck", "--input", _save(tmp_path, out))
    assert code == 0


def test_recheck_design_roundtrip(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--format", "json", "design", "rds", "--group", "2,4",
                          "--set", "0,0;0,1;1,0;1,3", "--forbidden", "0,2")
    assert code == 0
    code, _, _ = invoke(capsys, "recheck", "--input", _save(tmp_path, out))
    assert code == 0


def test_recheck_detects_tampering(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--format", "json", "classify", "--group", "3,3")
    data = json.loads(out)
    data["drg"] = 10
    code, out2, _ = invoke(capsys, "recheck", "--input", _save(tmp_path, json.dumps(data)))
    assert code == 1
    assert "drg" in out2


def test_recheck_of_a_report_without_aut_reduction_mismatches_inputs(tmp_path, capsys):
    code, out, _ = invoke(capsys, "--format", "json", "classify", "--group", "3,3")
    data = json.loads(out)
    data["inputs"]["aut_reduction"] = False
    code, out2 = invoke_json(capsys, "recheck", "--input", _save(tmp_path, json.dumps(data)))
    assert code == 1
    assert out2["match"] is False
    assert out2["mismatched_keys"] == ["inputs"]


@pytest.mark.parametrize(
    "text",
    [None, "not json", '{"command": "classify", "inputs": 5}', '{"command": 5, "inputs": {}}'],
    ids=["missing-file", "not-json", "inputs-not-an-object", "command-not-a-string"],
)
def test_recheck_of_malformed_input_is_a_usage_error(tmp_path, capsys, text):
    path = str(tmp_path / "absent.json") if text is None else _save(tmp_path, text)
    code, out = invoke_json(capsys, "recheck", "--input", path)
    assert code == 2
    assert out["error"] == "usage"


def test_recheck_rejects_foreign_json(tmp_path, capsys):
    code, _, err = invoke(capsys, "recheck", "--input", _save(tmp_path, '{"a": 1}'))
    assert code == 2


@pytest.mark.parametrize("command", ["recheck", "--format json recheck"])
def test_recheck_refuses_a_stored_recheck_naming_itself(tmp_path, capsys, command):
    path = tmp_path / "self.json"
    path.write_text(json.dumps({"command": command, "inputs": {"input": str(path)}}))
    code, out = invoke_json(capsys, "recheck", "--input", str(path))
    assert code == 2
    assert out["error"] == "usage"
