"""The Gray-code screen against a brute-force reference, over partitions of
the walk into step ranges, and report bytes across worker counts."""

from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from functools import lru_cache
from multiprocessing import get_context

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drgcayley import classify, groups
from drgcayley.classify import _mask_indices, inverse_pair_basis
from drgcayley.cli import run
from drgcayley.errors import NotConnectedError, SpecError
from drgcayley.graphs import CayleyGraph, check_distance_regular
from drgcayley.groups import make_group

# every group of order <= 32 here with at most 2^13 connection sets
CANDIDATES = [(n,) for n in range(1, 33)] + [
    (2, 2), (4, 2), (2, 2, 2), (3, 3), (6, 2), (4, 4), (8, 2), (4, 2, 2),
    (6, 3), (5, 5), (3, 3, 3), (9, 3), (10, 2), (12, 2), (6, 2, 2), (14, 2),
]
GROUPS = [m for m in CANDIDATES if len(inverse_pair_basis(make_group(m))) <= 13]


# 0b...0101: an odd step whose Gray pattern t ^ (t >> 1) sets every low bit
# but perhaps the top one, so a range starting there begins mid-walk
ALTERNATING = 0x5555555555555555


def _gray_rank(pattern):
    """The step t with t ^ (t >> 1) == pattern."""
    t = 0
    while pattern:
        t ^= pattern
        pattern >>= 1
    return t


def step_ids(tab, lo, hi):
    """The ids of Gray steps lo <= t < hi: every prefix with every t ^ (t >> 1)."""
    L = classify._low_bits(tab.B)
    t = np.arange(lo, hi, dtype=np.int64)
    prefixes = np.arange(1 << (tab.B - L), dtype=np.int64)
    return ((prefixes[:, None] << L) | (t ^ (t >> 1))).ravel()


@lru_cache(maxsize=None)
def reference_screen(moduli):
    """(connected count, survivor ids) over every mask, by brute force."""
    B = len(inverse_pair_basis(make_group(moduli)))
    return reference_screen_of(moduli, np.arange(1 << B))


def reference_screen_of(moduli, ids):
    """(connected count, survivor ids) over the masks in `ids`, by brute force.

    conv(S) is a direct convolution of the indicator on the group's
    coordinate grid, connectivity is the closure of {0} under adding S,
    and constancy is min == max over the set and over its coverage ring.
    """
    group = make_group(moduli)
    basis = inverse_pair_basis(group)
    n, shape = group.order, tuple(moduli)
    ind = np.zeros((len(ids), n), dtype=np.int64)
    for j, orb in enumerate(basis):
        ind[:, list(orb)] = (ids >> j & 1)[:, None]
    coords = [group.from_index(i).coords for i in range(n)]
    cell = np.ravel_multi_index(np.array(coords).T, shape)
    axes = tuple(range(1, len(shape) + 1))

    def grid(v):
        out = np.zeros((len(ids), n), dtype=v.dtype)
        out[:, cell] = v
        return out.reshape((len(ids),) + shape)

    def sumset_counts(a, b):
        """[#{(x, y) : x in a, y in b, x + y = g}] per row."""
        cube = grid(b)
        total = sum(
            a[:, x].reshape((-1,) + (1,) * len(shape)) * np.roll(cube, coords[x], axis=axes)
            for x in range(n)
        )
        return total.reshape(len(ids), n)[:, cell]

    conv = sumset_counts(ind, ind)
    reach = ind.copy()
    reach[:, group.index(group.zero)] = 1
    for _ in range(n.bit_length()):
        reach = (sumset_counts(reach, reach) > 0).astype(np.int64)
    connected = reach.all(axis=1)

    def constant(mask):
        hi = np.where(mask, conv, -1).max(axis=1)
        lo = np.where(mask, conv, n + 1).min(axis=1)
        return ~mask.any(axis=1) | (hi == lo)

    on = ind > 0
    covered = ~on & (conv > 0)
    covered[:, group.index(group.zero)] = False
    keep = connected & constant(on) & constant(covered)
    return int(connected.sum()), frozenset(ids[keep].tolist())


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_block_partitions_match_reference(data):
    """The 2^L Gray steps cut into ranges at arbitrary boundaries, one of
    them the odd step ALTERNATING mod 2^L: the ranges' connected counts add
    up to the reference count, and their survivors are the reference
    survivors, each once."""
    moduli = data.draw(st.sampled_from(GROUPS))
    tab = classify._tables(moduli)
    high = data.draw(st.integers(0, tab.B))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "HIGH_BITS", high)
        steps = 1 << classify._low_bits(tab.B)
        cuts = data.draw(st.lists(st.integers(0, steps), max_size=4))
        bounds = sorted({0, steps, ALTERNATING % steps, *cuts})
        ranges = list(zip(bounds, bounds[1:]))
        parts = [classify._scan_range((moduli, lo, hi)) for lo, hi in ranges]
        ids = [classify._screen(tab, lo, hi)[1].tolist() for lo, hi in ranges]
    connected, survivors = reference_screen(moduli)
    assert sum(p[0] for p in parts) == connected
    assert all(part == sorted(part) for part in ids)
    assert sorted(sid for part in ids for sid in part) == sorted(survivors)
    assert sorted(sid for p in parts for sid in p[1]) == sorted(survivors)


@settings(max_examples=1, deadline=None)
@given(st.data())
@pytest.mark.parametrize("moduli", [(15, 3), (7, 7)], ids=["z15x3-L10", "z7x7-L12"])
def test_deep_walk_blocks_match_reference(moduli, data):
    """Two-step ranges of the walk at the default HIGH_BITS, L = B - 12,
    over all 2^12 columns, each starting mid-walk: at a random step; at an
    odd step whose Gray pattern holds all low orbits but one; and at the
    step whose pattern holds them all, so it begins by adding L orbits.
    There the column holding every high orbit is G minus 0, the complete
    graph, which survives."""
    tab = classify._tables(moduli)
    L = classify._low_bits(tab.B)
    assert L >= 10
    full = _gray_rank((1 << L) - 1)
    mid = full - 1
    assert mid % 2 == 1 and bin(mid ^ mid >> 1).count("1") == L - 1
    for lo in sorted({data.draw(st.integers(1, (1 << L) - 2)), mid, full}):
        connected, ids = classify._screen(tab, lo, lo + 2)
        want = reference_screen_of(moduli, step_ids(tab, lo, lo + 2))
        assert (connected, frozenset(ids.tolist())) == want
        assert ((1 << tab.B) - 1 in ids) == (lo in (mid, full))


def test_int8_screen_refuses_a_group_above_its_order_bound():
    group = make_group([128])
    # B = 64 orbit bits: a raised limit alone does not reach the screen
    with pytest.raises(SpecError):
        classify.classify_group(group, max_subsets=1 << 70)
    # L = 0 and an empty step range: the order check comes before any table
    with pytest.MonkeyPatch.context() as mp, pytest.raises(classify.InvariantViolation) as err:
        mp.setattr(classify, "HIGH_BITS", 64)
        classify._screen(classify._tables((128,)), 0, 0)
    assert err.value.witness == {"order": 128, "bound": classify.INT8_ORDER}


# singleton and pair orbits mixed, and Z_2^4 with singletons only (B + 1 = |G|)
ORBIT_ROW_GROUPS = GROUPS + [(8, 2), (4, 2, 2), (14, 2), (2, 2, 2, 2)]


def _element_conv(group, elements):
    """conv(T)[g] = #{(x, y) in T^2 : x + y = g}, over every element."""
    conv = np.zeros(group.order, dtype=np.int64)
    np.add.at(conv, group.add_table()[np.ix_(elements, elements)].ravel(), 1)
    return conv


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_orbit_delta_on_orbit_rows_matches_element_convolution(data):
    moduli = data.draw(st.sampled_from(ORBIT_ROW_GROUPS))
    group = make_group(moduli)
    tab = classify._tables(moduli)
    if tab.B == 0:
        return
    j = data.draw(st.integers(0, tab.B - 1))
    masks = data.draw(st.lists(st.integers(0, (1 << tab.B) - 1), min_size=1, max_size=3))
    masks = [mask & ~(1 << j) for mask in masks]
    reps = [0] + [orb[0] for orb in tab.basis]
    # row 0 is the zero element, never in a connection set; row i + 1 is orbit i
    ind = np.array(
        [[0] * len(masks)] + [[mask >> i & 1 for mask in masks] for i in range(tab.B)], dtype=np.int32
    )
    got = classify._orbit_delta(tab, ind, j)
    for col, mask in enumerate(masks):
        elems = classify._mask_indices(tab.basis, mask)
        grown = elems + list(tab.basis[j])
        want = _element_conv(group, grown) - _element_conv(group, elems)
        assert got[:, col].tolist() == want[reps].tolist()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_screen_keeps_every_distance_regular_set(data):
    moduli = data.draw(st.sampled_from(GROUPS + [(15, 3), (7, 7)]))
    group = make_group(moduli)
    tab = classify._tables(moduli)
    mask = data.draw(st.integers(0, (1 << tab.B) - 1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "HIGH_BITS", data.draw(st.integers(0, min(tab.B, 13))))
        L = classify._low_bits(tab.B)
        t = _gray_rank(mask & ((1 << L) - 1))
        survivors = classify._screen(tab, t, t + 1)[1]
    try:
        conn = [group.from_index(i) for i in _mask_indices(tab.basis, mask)]
        drg = check_distance_regular(CayleyGraph(group, conn)).ok
    except NotConnectedError:
        drg = False
    if drg:
        assert mask in survivors


@pytest.mark.parametrize("lo,hi", [(1, 1 << 22), (3, 2), (-1, 4)])
def test_step_range_outside_the_walk_is_refused(lo, hi):
    tab = classify._tables((15, 3))
    with pytest.raises(classify.InvariantViolation) as err:
        classify._screen(tab, lo, hi)
    assert err.value.witness == {"lo": lo, "hi": hi, "steps": 1 << 10}


@pytest.mark.parametrize(
    "group,jobs",
    [("12,3", "3"), ("3", "3")],
    ids=["uneven-block-split", "more-jobs-than-blocks"],
)
def test_report_bytes_do_not_depend_on_jobs(group, jobs, capsys):
    out = []
    for j in ("1", jobs):
        assert run(["--format", "json", "classify", "--group", group, "--jobs", j]) == 0
        out.append(capsys.readouterr().out)
    assert out[0] == out[1]


@pytest.mark.parametrize("moduli", [(6, 3), (9, 3), (12, 3)], ids=["z6x3", "z9x3", "z12x3"])
def test_spawned_step_split_matches_in_process(moduli, monkeypatch):
    """With the spawn threshold at 0 and three usable CPUs, jobs 2 and 3
    spawn workers for every group with at least two Gray steps: Z_9 x Z_3
    has 2 (L = 1) and Z_12 x Z_3 has 64 (L = 6), which 3 workers split
    21/21/22.  Z_6 x Z_3 has a single step, so it runs in process.
    HIGH_BITS stays at its default: spawned workers import the module
    afresh."""
    pools = []

    def counted(*args, **kwargs):
        pools.append(kwargs["max_workers"])
        return ProcessPoolExecutor(*args, **kwargs)

    group = make_group(moduli)
    want = classify.classify_group(group).to_json()
    monkeypatch.setattr(classify, "SPAWN_SUBSETS", 0)
    monkeypatch.setattr(classify, "ProcessPoolExecutor", counted)
    monkeypatch.setattr(classify.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    steps = 1 << classify._low_bits(classify._tables(moduli).B)
    for jobs in (2, 3):
        assert classify.classify_group(group, workers=jobs).to_json() == want
    assert pools == ([] if steps == 1 else [2, min(3, steps)])


def test_spawned_workers_are_capped_at_the_usable_cpus(monkeypatch):
    """A spawn pool starts one interpreter per range submitted, so a worker
    count above the CPUs this process may use is cut to them.  The fake
    pool maps on one thread: the test starts no process."""
    pools = []

    def one_thread(max_workers, mp_context):
        pools.append(max_workers)
        return ThreadPoolExecutor(max_workers=1)

    group = make_group([12, 3])  # 64 Gray steps
    want = classify.classify_group(group).to_json()
    monkeypatch.setattr(classify, "SPAWN_SUBSETS", 0)
    monkeypatch.setattr(classify, "ProcessPoolExecutor", one_thread)
    monkeypatch.setattr(classify.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert classify.classify_group(group, workers=1 << 15).to_json() == want
    assert pools == [3]


def test_searches_below_the_spawn_threshold_run_in_process(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    group = make_group([15, 3])
    assert 1 << classify._tables((15, 3)).B < classify.SPAWN_SUBSETS
    want = classify.classify_group(group).to_json()
    monkeypatch.setattr(classify, "ProcessPoolExecutor", refuse)
    assert classify.classify_group(group, workers=2).to_json() == want


def _scan_and_count_aut_tables(args):
    """Run one worker range, then report how many groups this process has
    built the Aut(G) table and its canonical-form keys for."""
    classify._scan_range(args)
    return groups.automorphisms.cache_info().currsize, groups._lex_keys.cache_info().currsize


def test_aut_tables_are_built_only_in_the_parent():
    """A spawned worker screens its range without any Aut(G) call; the
    classes are marked in the calling process, which reads the tables."""
    moduli = (3, 3, 3)
    steps = 1 << classify._low_bits(classify._tables(moduli).B)
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
        assert pool.submit(_scan_and_count_aut_tables, (moduli, 0, steps)).result() == (0, 0)
    before = groups._lex_keys.cache_info()
    classify.classify_group(make_group(moduli))
    after = groups._lex_keys.cache_info()
    assert after.hits + after.misses > before.hits + before.misses
