"""Workload definitions shared by the runner (run.py) and the child (child.py).

Every workload is closed loop: one operation at a time from one runner
process, each in a fresh interpreter.  The classification workloads are
exhaustive, so their inputs do not depend on the seed; the seed only
shuffles the order in which schur-circulants analyses its graphs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd, prod
from typing import Sequence, Tuple


@dataclass(frozen=True)
class CliWorkload:
    """One `drgcayley --format json <argv>` call per operation."""

    argv: Tuple[str, ...]
    moduli: Tuple[int, ...]
    digest_key: str  # equal searches share one expected digest, whatever --jobs

    @property
    def jobs(self) -> int:
        return int(self.argv[self.argv.index("--jobs") + 1]) if "--jobs" in self.argv else 1


@dataclass(frozen=True)
class SchurWorkload:
    """Circulant sweep plus the Schur/Krein/dual analysis of every Aut-class."""

    moduli: Tuple[int, ...]


CLI = {
    "screen-z15x3": CliWorkload(("verify-theorem", "--group", "15,3"), (15, 3), "verify-z15x3"),
    "fanout-z15x3-j2": CliWorkload(
        ("verify-theorem", "--group", "15,3", "--jobs", "2"), (15, 3), "verify-z15x3"
    ),
    "aut-z3x3x3": CliWorkload(("classify", "--group", "3,3,3"), (3, 3, 3), "classify-z3x3x3"),
    # spawn-cost probe for the fan-out workload and the harness self-check
    "probe-z3x3-j1": CliWorkload(("classify", "--group", "3,3"), (3, 3), "classify-z3x3"),
    "probe-z3x3-j2": CliWorkload(("classify", "--group", "3,3", "--jobs", "2"), (3, 3), "classify-z3x3"),
}

CIRCULANTS = tuple(range(1, 34))
SCHUR = {"schur-circulants": SchurWorkload(CIRCULANTS)}

# the workloads BENCHMARK.json lists, in order
BENCHMARKED = ("screen-z15x3", "fanout-z15x3-j2", "aut-z3x3x3", "schur-circulants")
FANOUT, FANOUT_BASE = "fanout-z15x3-j2", "screen-z15x3"

# The layer each workload exists to stress: (per-layer metric, least share
# of the traced wall it should take at the commit the benchmark was defined).
STRESS = {
    "screen-z15x3": ("classify.self_s", 0.9),
    "fanout-z15x3-j2": ("classify.self_s", 0.9),
    "aut-z3x3x3": ("groups.canonicalize_s", 0.9),
    "schur-circulants": ("schur.covered_s", 0.6),
}


def lookup(name: str):
    return CLI.get(name) or SCHUR.get(name)


def subset_count(moduli: Sequence[int]) -> int:
    """2^B for B the number of {g,-g} orbits of G\\{0}, G = Z_m1 x ... x Z_mr,
    computed without the program: t nonzero involutions form singleton
    orbits, the other n-1-t elements pair up."""
    n = prod(moduli)
    involutions = prod(gcd(2, m) for m in moduli) - 1
    return 1 << ((n - 1 - involutions) // 2 + involutions)


def graph_key(n: int, connection: Sequence[str]) -> str:
    return f"{n}:" + ";".join(connection)


def graph_order(count: int, seed: int) -> list:
    """The seeded analysis order of `count` graphs."""
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order


def expected_graphs(expected: dict, moduli: Sequence[int]) -> dict:
    """The expected graph digests of the sweep restricted to `moduli`."""
    wanted = set(moduli)
    return {k: v for k, v in expected["graphs"].items() if int(k.split(":", 1)[0]) in wanted}


def describe(name: str) -> str:
    w = lookup(name)
    if isinstance(w, CliWorkload):
        return "drgcayley --format json " + " ".join(w.argv)
    return f"circulant sweep n={w.moduli[0]}..{w.moduli[-1]} + Schur analysis"
