"""The group's character table and exact character sums over sets.

The character chi_g(x) = zeta_m^{e(g,x)}, m the group exponent, is held
as its exponent table e, and character sums over sets come back as
exact cyclotomic coordinates; `distinct_rows` groups characters whose
values agree.  Convolutions in the integer group algebra are gathers
over `AbelianGroup.sub_table()` where they are needed; the
group-algebra element class is test-side code in tests/reference.py.
"""

from __future__ import annotations

import functools as ft
from typing import Dict, Sequence, Tuple

import numpy as np

from .cyclotomic import euler_phi, reduce_root_counts
from .groups import GROUP_CACHE_SIZE, AbelianGroup

CHARACTER_CHUNK_ENTRIES = 1 << 18  # int64 entries per character_values temporary


# ---------------------------------------------------------------------------
# characters


@ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
def character_table(group: AbelianGroup) -> np.ndarray:
    """table[g, x] = e(g, x), the exponent with chi_g(x) = zeta_m^e, m the
    group exponent: one cached read-only (n, n) int32 matrix per group,
    rows and columns in index order (it is symmetric)."""
    m = group.exponent
    coords = group.coords_matrix()
    weights = np.array([m // n for n in group.moduli], dtype=np.int64)
    table = ((coords * weights) @ coords.T % m).astype(np.int32)
    table.setflags(write=False)
    return table


def character_values(group: AbelianGroup, classes: Sequence[Sequence[int]]) -> np.ndarray:
    """values[g, i] = chi_g(N_i) = sum over x in classes[i] of chi_g(x), exact.

    Returns the power-basis coordinates at the group exponent m as an
    (n, r, phi(m)) array, one row per character in index order; the
    classes need not cover the group, and r may be 0.  Each value is the
    root-count vector of its class under the character table, reduced by
    reduce_root_counts.
    """
    n, m = group.order, group.exponent
    r, phi = len(classes), euler_phi(m)
    members = [np.asarray(cls, dtype=np.intp).reshape(-1) for cls in classes]
    cols = np.concatenate(members) if members else np.zeros(0, dtype=np.intp)
    # a (g, x) pair adds one to counts[g, class of x, e(g, x)]
    labels = np.repeat(np.arange(r, dtype=np.intp) * m, [len(c) for c in members])
    table = character_table(group)
    step = max(1, CHARACTER_CHUNK_ENTRIES // max(r * m, cols.size, 1))
    blocks = []
    for lo in range(0, n, step):
        rows = table[lo : lo + step]
        k = rows.shape[0]
        key = rows[:, cols] + labels
        key += np.arange(k, dtype=np.intp)[:, None] * (r * m)
        counts = np.bincount(key.ravel(), minlength=k * r * m).reshape(k * r, m)
        vals = reduce_root_counts(counts, m)
        blocks.append(vals.reshape(k, r, phi))
    return np.concatenate(blocks)


def distinct_rows(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(keys, label): the distinct rows in order of first occurrence, and
    for each row the index of its key."""
    if rows.dtype == object:  # Python integers have no fixed-width bytes to compare
        index: Dict[Tuple[int, ...], int] = {}
        label = [index.setdefault(tuple(row), len(index)) for row in rows.tolist()]
        return np.array(list(index), dtype=object).reshape(len(index), -1), np.array(label, dtype=np.intp)
    rows = np.ascontiguousarray(rows)
    # each row as one opaque item: np.unique(axis=0) compares a row field by
    # field, about 10x slower on the dual ring's wide rows
    items = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, label = np.unique(items, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rows[first[order]], rank[label.reshape(-1)]
