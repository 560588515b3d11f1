"""Command-line interface.

Every subcommand prints a deterministic report: JSON (sorted keys, no
timing or worker fields) or aligned text; `construct` additionally
speaks graph6.  Payloads embed the command and its defining inputs so
`recheck` can re-execute a saved report and compare byte for byte.

Exit codes: 0 verified/success, 1 checked and found false (not
distance-regular, disconnected, non-empty diff, failed design check),
2 usage error, 3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence, Tuple

from .classify import (
    MAX_SUBSETS,
    aligned_rows,
    classify_group,
    nonexistence_report,
    verify_circulant_theorem,
    verify_main_theorem,
)
from .constructions import crown, td_line_graph, order_p_subgroups
from .designs import (
    direction_bound_check,
    directions,
    is_polynomial_addition_set,
    is_relative_difference_set,
)
from .errors import InvariantViolation, NotConnectedError, SpecError
from .graphs import (
    CayleyGraph,
    check_distance_regular,
    detect_family,
    export_graph6,
    imprimitivity,
    spectrum,
)
from .groups import (
    AbelianGroup,
    format_element,
    generated_subgroup,
    maximal_subgroups,
    parse_element,
    parse_element_set,
    parse_group,
)
from .schur import (
    distance_module,
    dual_graph,
    dual_schur_ring,
    krein_parameters,
    q_polynomial_orderings,
)

Payload = Tuple[dict, str, int]  # (json payload, text rendering, exit code)


# ---------------------------------------------------------------------------
# input parsing


def parse_connection(group: AbelianGroup, text: str) -> frozenset:
    """Explicit element list "a,b;c,d;..." or a family shorthand:
    complete / multipartite:H=<gens> / crown:a=<elem> / tdlg:r=<k>."""
    text = text.strip()
    if text == "complete":
        return frozenset(e for e in group.elements() if not e.is_zero)
    if text.startswith("multipartite:H="):
        gens = parse_element_set(group, text[len("multipartite:H="):])
        sub = generated_subgroup(group, gens)
        if not 1 < sub.order < group.order:
            raise SpecError("multipartite part must generate a proper nontrivial subgroup")
        return frozenset(e for e in group.elements() if e not in sub.element_set())
    if text.startswith("crown:a="):
        a = parse_element(group, text[len("crown:a="):])
        if group.order % 2:
            raise SpecError("crown shorthand needs a group of even order")
        halves = [h for h in maximal_subgroups(group) if 2 * h.order == group.order and a not in h]
        if len(halves) != 1:
            raise SpecError(
                f"{len(halves)} index-2 subgroups avoid {format_element(a)};"
                " the crown shorthand needs exactly one"
            )
        return crown(group, halves[0], a)
    if text.startswith("tdlg:r="):
        try:
            r = int(text[len("tdlg:r="):])
        except ValueError as exc:
            raise SpecError(f"bad tdlg parameter in {text!r}") from exc
        if len(group.moduli) != 2 or group.moduli[0] != group.moduli[1]:
            raise SpecError("tdlg shorthand needs a group Z_p + Z_p")
        lines = order_p_subgroups(group.moduli[0])
        if not 2 <= r <= len(lines):
            raise SpecError(f"tdlg needs 2 <= r <= {len(lines)}")
        return td_line_graph(group.moduli[0], lines[:r])
    return parse_element_set(group, text)


def _parse_points(text: str) -> List[Tuple[int, int]]:
    points = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        pieces = part.split(",")
        if len(pieces) != 2:
            raise SpecError(f"point {part!r} is not an x,y pair")
        try:
            points.append((int(pieces[0]), int(pieces[1])))
        except ValueError as exc:
            raise SpecError(f"point {part!r} is not an integer pair") from exc
    if not points:
        raise SpecError("empty point list")
    return points


def _graph_from(args) -> Tuple[AbelianGroup, CayleyGraph, dict]:
    group = parse_group(args.group)
    conn = parse_connection(group, args.set)
    graph = CayleyGraph(group, conn)
    inputs = {"group": args.group, "set": args.set}
    return group, graph, inputs


def _conn_list(graph: CayleyGraph) -> List[str]:
    return [format_element(e) for e in sorted(graph.connection)]


# ---------------------------------------------------------------------------
# subcommand bodies


def _cmd_construct(args) -> Payload:
    group, graph, inputs = _graph_from(args)
    payload = {
        "command": "construct",
        "inputs": inputs,
        "group": str(group),
        "connection": _conn_list(graph),
        "order": graph.order,
        "degree": graph.degree,
        "connected": graph.is_connected(),
        "graph6": export_graph6(graph),
    }
    text = "\n".join(
        [
            f"Cay({group}; {{{';'.join(payload['connection'])}}})",
            f"order {graph.order}, degree {graph.degree}, "
            + ("connected" if payload["connected"] else "disconnected"),
            f"graph6 {payload['graph6']}",
        ]
    )
    return payload, text, 0


def _cmd_check(args) -> Payload:
    group, graph, inputs = _graph_from(args)
    res = check_distance_regular(graph)
    payload = {
        "command": "check",
        "inputs": inputs,
        "group": str(group),
        "connection": _conn_list(graph),
        "ok": res.ok,
    }
    if not res.ok:
        payload["witness"] = res.witness
        return payload, f"not distance-regular: {res.witness}", 1
    arr = res.array
    info = imprimitivity(graph, res)
    fam = detect_family(graph, res)
    payload.update(
        {
            "intersection_array": arr.to_dict(),
            "family": fam.kind,
            "parameters": dict(fam.params),
            "flags": {
                "bipartite": info.bipartite,
                "antipodal": info.antipodal,
                "primitive": info.primitive,
            },
        }
    )
    lines = [f"distance-regular, diameter {arr.d}, array {arr}"]
    if arr.d == 2:
        n, k = graph.order, arr.k
        lines.insert(0, f"SRG({n},{k},{arr.a_at(1)},{arr.c_at(2)})")
        payload["srg"] = [n, k, arr.a_at(1), arr.c_at(2)]
    lines.append(f"family {fam}")
    return payload, "\n".join(lines), 0


def _cmd_spectrum(args) -> Payload:
    group, graph, inputs = _graph_from(args)
    inputs["precision"] = args.precision
    eig = spectrum(graph, dps=args.precision)
    payload = {
        "command": "spectrum",
        "inputs": inputs,
        "group": str(group),
        "connection": _conn_list(graph),
        "distinct": eig.count,
    }
    payload.update(eig.to_dict())
    text = "\n".join(
        f"{e['value_numeric']:< 24.12g} x{e['multiplicity']}  {e['value_exact']}"
        for e in payload["eigenvalues"]
    )
    return payload, text, 0


def _cmd_schur(args) -> Payload:
    group, graph, inputs = _graph_from(args)
    ring = distance_module(graph)
    payload = {
        "command": "schur",
        "inputs": inputs,
        "rank": ring.rank,
        "class_sizes": list(ring.class_sizes()),
        "symmetric": ring.is_symmetric,
        "primitive": ring.is_primitive,
    }
    payload.update(ring.to_dict())
    classes = [
        "{" + ";".join(format_element(e) for e in ring.class_elements(i)) + "}"
        for i in range(ring.rank)
    ]
    text = "\n".join([f"rank {ring.rank} distance module over {group}"] + classes)
    return payload, text, 0


def _cmd_krein(args) -> Payload:
    group, graph, inputs = _graph_from(args)
    ring = distance_module(graph)
    tensor = krein_parameters(ring)
    payload = {
        "command": "krein",
        "inputs": inputs,
        "group": str(group),
        "rank": tensor.rank,
    }
    payload.update(tensor.to_dict())
    rows = [f"Krein parameters, rank {tensor.rank}"]
    for i, plane in enumerate(tensor.array):
        for j, row in enumerate(plane):
            rows.append(f"q_{i}{j}^* = {row.tolist()}")
    return payload, "\n".join(rows), 0


def _cmd_dual(args) -> Payload:
    group, graph, inputs = _graph_from(args)
    check = check_distance_regular(graph)
    ring = distance_module(graph, check)
    dual = dual_schur_ring(ring)
    orderings = q_polynomial_orderings(ring)
    duals = []
    for tau in orderings:
        # dual_graph raises InvariantViolation when the dual is not distance-regular
        dgraph = dual_graph(graph, tau, check)
        duals.append(
            {
                "ordering": list(tau),
                "connection": _conn_list(dgraph),
                "intersection_array": check_distance_regular(dgraph).array.to_dict(),
            }
        )
    payload = {
        "command": "dual",
        "inputs": inputs,
        "group": str(group),
        "dual_classes": [list(c) for c in dual.classes],
        "q_polynomial_orderings": [list(t) for t in orderings],
        "dual_graphs": duals,
    }
    lines = [f"dual ring rank {dual.rank}; {len(duals)} Q-polynomial ordering(s)"]
    for d in duals:
        lines.append(f"tau={d['ordering']} -> array {d['intersection_array']['b']}{d['intersection_array']['c']}")
    return payload, "\n".join(lines), 0


def _cmd_design_rds(args) -> Payload:
    group = parse_group(args.group)
    dset = parse_element_set(group, args.set)
    forb = parse_element_set(group, args.forbidden)
    res = is_relative_difference_set(group, dset, generated_subgroup(group, forb))
    payload = {
        "command": "design rds",
        "inputs": {"group": args.group, "set": args.set, "forbidden": args.forbidden},
    }
    payload.update(res.to_dict())
    text = "relative difference set " + ("confirmed" if res.ok else f"refused: {res.witness}")
    if res.ok:
        text += f", parameters {res.params}"
    return payload, text, 0 if res.ok else 1


def _cmd_design_pas(args) -> Payload:
    group = parse_group(args.group)
    dset = parse_element_set(group, args.set)
    try:
        coeffs = [int(c) for c in args.poly.split(",")]
    except ValueError as exc:
        raise SpecError(f"bad polynomial coefficients {args.poly!r}") from exc
    res = is_polynomial_addition_set(group, dset, coeffs)
    payload = {
        "command": "design pas",
        "inputs": {"group": args.group, "set": args.set, "poly": args.poly},
    }
    payload.update(res.to_dict())
    text = "polynomial addition set " + (
        f"confirmed with level {res.m}" if res.ok else f"refused: {res.witness}"
    )
    return payload, text, 0 if res.ok else 1


def _cmd_design_directions(args) -> Payload:
    points = _parse_points(args.points)
    dset = directions(args.prime, points)
    status = direction_bound_check(args.prime, points)
    payload = {
        "command": "design directions",
        "inputs": {"prime": args.prime, "points": args.points},
        "status": status,
    }
    payload.update(dset.to_dict())
    text = f"{len(points)} points determine {len(dset.labels())} direction(s): {status}"
    if status == "VIOLATION":
        raise InvariantViolation(
            f"direction bound broken: {payload}",
            witness={
                "prime": args.prime,
                "points": [list(w) for w in points],
                "directions": len(dset.labels()),
            },
        )
    return payload, text, 0


def _search_inputs(args) -> dict:
    return {
        "group": args.group,
        "limit": args.limit,
        "aut_reduction": True,  # always on; kept so report bytes stay stable
    }


def _search_kwargs(args) -> dict:
    return {
        "workers": args.jobs,
        "max_subsets": args.limit,
    }


def _cmd_classify(args) -> Payload:
    group = parse_group(args.group)
    report = classify_group(group, **_search_kwargs(args))
    payload = {"command": "classify", "inputs": _search_inputs(args)}
    payload.update(report.to_dict())
    text = aligned_rows(report.summary_rows())
    sys.stderr.write(f"wall time {report.elapsed:.2f}s\n")
    return payload, text, 0


def _cmd_verify_theorem(args) -> Payload:
    group = parse_group(args.group)
    diff = verify_main_theorem(group, **_search_kwargs(args))
    nonx = nonexistence_report(diff.report)
    payload = {"command": "verify-theorem", "inputs": _search_inputs(args)}
    payload.update(diff.to_dict())
    payload["nonexistence"] = nonx.to_dict()
    text = _diff_text(diff)
    sys.stderr.write(f"wall time {diff.report.elapsed:.2f}s\n")
    return payload, text, 0 if diff.empty else 1


def _cmd_verify_circulant(args) -> Payload:
    group = parse_group(args.group)
    if len(group.moduli) > 1:
        raise SpecError("verify-circulant takes a single modulus, e.g. --group 13")
    diff = verify_circulant_theorem(group.order, **_search_kwargs(args))
    payload = {"command": "verify-circulant", "inputs": _search_inputs(args)}
    payload.update(diff.to_dict())
    sys.stderr.write(f"wall time {diff.report.elapsed:.2f}s\n")
    return payload, _diff_text(diff), 0 if diff.empty else 1


def _diff_text(diff) -> str:
    lines = [
        f"expected {diff.expected_count} distance-regular sets, found {diff.found_count}",
        "diff empty: theorem verified" if diff.empty else "DIFF NON-EMPTY",
    ]
    for c, label in diff.missing:
        lines.append("missing    " + label + "  {" + ";".join(format_element(e) for e in sorted(c)) + "}")
    for c, label in diff.unexpected:
        lines.append("unexpected " + label + "  {" + ";".join(format_element(e) for e in sorted(c)) + "}")
    return "\n".join(lines)


def _cmd_recheck(args) -> Payload:
    try:
        if args.input == "-":
            data = json.load(sys.stdin)
        else:
            with open(args.input) as fh:
                data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise SpecError(f"cannot read a JSON report from {args.input}: {exc}") from exc
    if not (
        isinstance(data, dict)
        and isinstance(data.get("command"), str)
        and isinstance(data.get("inputs"), dict)
    ):
        raise SpecError("recheck needs a JSON report produced by this tool")
    argv = list(data["command"].split())
    inputs = data["inputs"]
    for key, value in sorted(inputs.items()):
        if key != "aut_reduction":
            argv.extend([f"--{key}", str(value)])
    parser = build_parser()
    try:
        fresh = parser.parse_args(argv)
    except SystemExit as exc:
        raise SpecError(f"stored report inputs do not parse: {argv}") from exc
    if fresh.func is _cmd_recheck:
        # a stored recheck would run recheck again, on itself if it names its own file
        raise SpecError(f"{args.input} is a recheck report; recheck the report it names instead")
    payload, _, code = fresh.func(fresh)
    match = json.loads(json.dumps(payload, sort_keys=True)) == data
    out = {
        "command": "recheck",
        "inputs": {"input": args.input},
        "rechecked": data["command"],
        "match": match,
        "original_exit": code,
    }
    if not match:
        diffs = sorted(
            k for k in set(payload) | set(data) if payload.get(k) != data.get(k)
        )
        out["mismatched_keys"] = diffs
        return out, f"recheck FAILED, fields differ: {diffs}", 1
    return out, f"recheck of {data['command']!r} confirmed the stored report", 0


# ---------------------------------------------------------------------------
# parser and dispatch


def _add_graph_args(sub) -> None:
    sub.add_argument("--group", required=True, help="group moduli, e.g. 6,3")
    sub.add_argument("--set", required=True, help='connection set "1,0;5,0;0,1" or shorthand')


def _add_search_args(sub) -> None:
    sub.add_argument("--jobs", type=int, default=1, help="worker processes")
    sub.add_argument("--limit", type=int, default=MAX_SUBSETS, help="max subsets to enumerate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drgcayley",
        description="Exact distance-regular Cayley graph toolkit over finite abelian groups",
    )
    parser.add_argument("--format", choices=("json", "text", "graph6"), default="text")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    for name, fn in (
        ("construct", _cmd_construct),
        ("check", _cmd_check),
        ("spectrum", _cmd_spectrum),
        ("schur", _cmd_schur),
        ("krein", _cmd_krein),
        ("dual", _cmd_dual),
    ):
        p = sub.add_parser(name)
        _add_graph_args(p)
        if name == "spectrum":
            p.add_argument("--precision", type=int, default=40, help="working decimal digits")
        p.set_defaults(func=fn)

    design = sub.add_parser("design")
    dsub = design.add_subparsers(dest="design_kind", required=True)
    rds = dsub.add_parser("rds")
    _add_graph_args(rds)
    rds.add_argument("--forbidden", required=True, help="generators of the forbidden subgroup")
    rds.set_defaults(func=_cmd_design_rds)
    pas = dsub.add_parser("pas")
    _add_graph_args(pas)
    pas.add_argument("--poly", required=True, help="polynomial coefficients c0,c1,...")
    pas.set_defaults(func=_cmd_design_pas)
    dirs = dsub.add_parser("directions")
    dirs.add_argument("--prime", type=int, required=True)
    dirs.add_argument("--points", required=True, help='affine points "x,y;x,y;..."')
    dirs.set_defaults(func=_cmd_design_directions)

    for name, fn in (
        ("classify", _cmd_classify),
        ("verify-theorem", _cmd_verify_theorem),
        ("verify-circulant", _cmd_verify_circulant),
    ):
        p = sub.add_parser(name)
        p.add_argument("--group", required=True)
        _add_search_args(p)
        p.set_defaults(func=fn)

    recheck = sub.add_parser("recheck")
    recheck.add_argument("--input", required=True, help="JSON report file, or - for stdin")
    recheck.set_defaults(func=_cmd_recheck)
    return parser


def _emit_error(fmt: str, kind: str, exc: Exception) -> None:
    if fmt == "json":
        payload = {"error": kind, "message": str(exc)}
        witness = getattr(exc, "witness", None)
        if witness is not None:
            payload["witness"] = witness
        print(json.dumps(payload, sort_keys=True))
    else:
        sys.stderr.write(f"error ({kind}): {exc}\n")


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2
    fmt = args.format
    try:
        payload, text, code = args.func(args)
    except NotConnectedError as exc:
        _emit_error(fmt, "not-connected", exc)
        return 1
    except SpecError as exc:
        _emit_error(fmt, "usage", exc)
        return 2
    except InvariantViolation as exc:
        _emit_error(fmt, "invariant", exc)
        return 3
    if fmt == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif fmt == "graph6":
        if "graph6" not in payload:
            _emit_error("text", "usage", SpecError("graph6 output only applies to construct"))
            return 2
        print(payload["graph6"])
    else:
        print(text)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
