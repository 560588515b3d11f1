"""Classification reports against golden digests, and the class-size check.

tests/golden/classify_digests.json maps a group's moduli to the SHA-256
of ``classify_group(make_group(moduli)).to_json()`` as the
per-automorphism reference implementation produced it.  Any change that
alters a report's bytes shows here.

tests/golden/cli_digests.json maps "<command> <case> <format>" to the
SHA-256 of the stdout of `drgcayley --format <format> <command>` on the
inputs CLI_CASES names; the search commands take no connection set.  The
schur, krein and dual digests on three graphs were recorded before the
Schur and Krein structure constants were kept as arrays only; the
spectrum and design digests were recorded before the cyclotomic ring
arithmetic and the group-algebra class left the package; the check,
construct and verify digests were recorded before subgroups lost their
generating sets; the paley-z29 (dps 20 and 500), cycle-z33 (dps 500)
and cycle-z5 (dps 60) spectrum digests were recorded before the roots
of unity behind the eigenvalue order were memoised; the cycle-z2048 and
cycle-z1536 spectrum digests were recorded before root counts were
reduced through the radical of the conductor.  CI checks the text
check, krein, dual and spectrum digests, the dps 60 and dps 500
spectrum digests in JSON, and the cycle-z2048 spectrum digest in JSON
under a 20 s timeout, through the console script as well.

tests/golden/catalog_digests.json maps a group's moduli to the SHA-256 of
the sorted (connection, label) pairs of its expected catalog: the
circulant catalog for one modulus, the Z_n + Z_p catalog for two.  They
were recorded before the two catalogs shared one builder.

Z7X7_DIGEST is the SHA-256 of the Z_7 x Z_7 report at max_subsets 2^24,
above the default limit, as the per-survivor canonical form produced it:
two key words per set, 247 survivors in 8 Aut(G)-classes.
"""

import hashlib
import json
from pathlib import Path

import pytest

from drgcayley import classify
from drgcayley.cli import run
from drgcayley.classify import classify_group
from drgcayley.constructions import expected_catalog, expected_circulant_catalog
from drgcayley.groups import format_element, make_group

GOLDEN = json.loads((Path(__file__).parent / "golden" / "classify_digests.json").read_text())
CLI_GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_digests.json").read_text())
CATALOG_GOLDEN = json.loads((Path(__file__).parent / "golden" / "catalog_digests.json").read_text())
Z7X7_DIGEST = "8b08fa1fafa5f03e72130116a7ae0e85744a52b3f207fc4a14552b305eed8ad6"
PALEY_Z29 = "1;4;5;6;7;9;13;16;20;22;23;24;25;28"  # the quadratic residues mod 29
# case -> (group, set or None, further arguments, exit code)
CLI_CASES = {
    "paley-z13": ("13", "1;3;4;9;10;12", (), 0),
    "cube-z2x2x2x2": ("2,2,2,2", "1,0,0,0;0,1,0,0;0,0,1,0;0,0,0,1", (), 0),
    "crown-z6x3": ("6,3", "crown:a=3,0", (), 0),
    "multipartite-z6x3": ("6,3", "multipartite:H=0,1", (), 0),
    "tdlg-z5x5": ("5,5", "tdlg:r=2", (), 0),
    "z5x5": ("5,5", None, (), 0),
    "z12": ("12", None, (), 0),
    "cycle-z7": ("7", "1;6", (), 0),
    "cycle-z7-dps60": ("7", "1;6", ("--precision", "60"), 0),
    "cycle-z5-dps60": ("5", "1;4", ("--precision", "60"), 0),
    "cycle-z33-dps500": ("33", "1;32", ("--precision", "500"), 0),
    "cycle-z1536": ("1536", "1;1535", (), 0),
    "cycle-z2048": ("2048", "1;2047", (), 0),
    "paley-z29-dps20": ("29", PALEY_Z29, ("--precision", "20"), 0),
    "paley-z29-dps500": ("29", PALEY_Z29, ("--precision", "500"), 0),
    "rds-z2x4": ("2,4", "0,0;0,1;1,0;1,3", ("--forbidden", "0,2"), 0),
    "rds-z2x4-refused": ("2,4", "0,0;0,1;1,0", ("--forbidden", "0,2"), 1),
    "pas-z7": ("7", "1;2;4", ("--poly", "2,1,1"), 0),
    "pas-z7-refused": ("7", "1;2;4", ("--poly", "0,1"), 1),
}


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_report_matches_golden_digest(key):
    report = classify_group(make_group([int(m) for m in key.split(",")]))
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == GOLDEN[key]


def test_raised_limit_report_matches_golden_digest():
    report = classify_group(make_group([7, 7]), max_subsets=1 << 24)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == Z7X7_DIGEST


@pytest.mark.parametrize("key", sorted(CATALOG_GOLDEN))
def test_catalog_matches_golden_digest(key):
    moduli = [int(m) for m in key.split(",")]
    if len(moduli) == 1:
        catalog = expected_circulant_catalog(moduli[0])
    else:
        catalog = expected_catalog(make_group(moduli))
    pairs = sorted(
        (";".join(format_element(e) for e in sorted(entry.connection)), str(entry.label)) for entry in catalog
    )
    assert hashlib.sha256(json.dumps(pairs).encode()).hexdigest() == CATALOG_GOLDEN[key]


@pytest.mark.parametrize("key", sorted(CLI_GOLDEN))
def test_cli_output_matches_golden_digest(key, capsys):
    command, case, fmt = key.rsplit(" ", 2)
    group, connection, extra, code = CLI_CASES[case]
    if connection is not None:
        extra = ("--set", connection, *extra)
    assert run(["--format", fmt, *command.split(), "--group", group, *extra]) == code
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == CLI_GOLDEN[key]


def test_class_size_witness_reaches_cli_json(monkeypatch, capsys):
    scan = classify._scan_range

    def drop_first_survivor(args):
        connected, survivors = scan(args)
        return connected, survivors[1:]

    monkeypatch.setattr(classify, "_scan_range", drop_first_survivor)
    code = run(["--format", "json", "classify", "--group", "3,3"])
    data = json.loads(capsys.readouterr().out)
    assert code == 3
    assert data["error"] == "invariant"
    assert set(data["witness"]) == {"connection", "expected", "found"}
    assert data["witness"]["found"] == data["witness"]["expected"] - 1
