"""The package surface: every exported name resolves, and names that left
the package stay out of it.

The family constructors with their predicted arrays live in
tests/reference.py, as does the element arithmetic beyond + (negation,
integer multiples, element order) that no command runs.  A name listed
here must not be defined again anywhere in the package sources.
"""

import ast
import importlib
from pathlib import Path

import drgcayley

# defined nowhere in the package, at any depth
REMOVED = (
    "Construction", "srg_array", "complete_graph", "complete_multipartite", "cycle", "paley",
    "subgroups_of_order", "divisors",
    "SearchSpec", "DistancePartition", "distance_partition", "_as_subgroup", "subgroup_from_elements",
)
# class -> members it no longer defines
REMOVED_MEMBERS = {
    "GroupElement": ("__sub__", "__neg__", "__rmul__", "order"),
    "AbelianGroup": ("neg", "scale", "order_of"),
}


def _sources():
    return sorted(Path(drgcayley.__file__).parent.glob("*.py"))


def test_every_export_resolves():
    assert [name for name in drgcayley.__all__ if not hasattr(drgcayley, name)] == []
    assert len(set(drgcayley.__all__)) == len(drgcayley.__all__)


def test_removed_names_are_not_defined_in_the_package():
    found = []
    for path in _sources():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in REMOVED:
                found.append(f"{path.name}: {node.name}")
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id in REMOVED:
                found.append(f"{path.name}: {node.id} =")
            if isinstance(node, ast.ClassDef) and node.name in REMOVED_MEMBERS:
                found += [
                    f"{path.name}: {node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name in REMOVED_MEMBERS[node.name]
                ]
    assert found == []


def test_removed_names_do_not_resolve():
    modules = [importlib.import_module(f"drgcayley.{p.stem}") for p in _sources() if p.stem != "__init__"]
    modules.append(drgcayley)
    assert [f"{m.__name__}.{n}" for m in modules for n in REMOVED if hasattr(m, n)] == []
    for cls, members in REMOVED_MEMBERS.items():
        assert [m for m in members if hasattr(getattr(drgcayley, cls), m)] == []
