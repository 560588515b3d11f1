"""Finite abelian groups presented as direct products of cyclic factors.

A group is a list of moduli [n_1, ..., n_r]; elements are coordinate
tuples of residues.  Elements are enumerated lexicographically, so index
0 is the identity, and hot paths work with the integer index of an
element in that enumeration.

A subgroup is the sorted index set of its elements, with no generating
set; the maximal ones are kernels of maps onto Z_p, found without the
subgroup lattice, which only the catalogs build.  A group's derived
tables (elements, index tables, maximal subgroups, subgroup lattice,
automorphisms and their canonical-form keys) are memoised per moduli:
groups compare and hash by their moduli, so equal groups share one copy.
Shared arrays are returned read-only.
"""

from __future__ import annotations

import functools as ft
import itertools as it
from dataclasses import dataclass
from math import gcd, prod
from typing import FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import SpecError

MAX_ORDER = 2048
MAX_AUT_ORDER = 200
MAX_AUT_CANDIDATES = 1 << 20  # generator-image tuples automorphisms() may test
AUT_CHUNK_ENTRIES = 1 << 16  # int32 entries per enumeration temporary
MAX_SUBGROUPS = 50_000
GROUP_CACHE_SIZE = 64  # groups whose tables stay memoised; the Z_1..Z_33 sweep touches 33


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b) if a and b else max(a, b)


class AbelianGroup:
    """Direct product Z_{n_1} + ... + Z_{n_r}; the empty product is trivial."""

    def __init__(self, moduli: Sequence[int]):
        mods = tuple(int(n) for n in moduli)
        if any(n < 1 for n in mods):
            raise SpecError(f"moduli must be positive, got {mods}")
        order = prod(mods) if mods else 1
        if order > MAX_ORDER:
            raise SpecError(f"group order {order} exceeds the supported bound {MAX_ORDER}")
        self.moduli = mods
        self.rank = len(mods)
        self.order = order
        self.exponent = 1
        for n in mods:
            self.exponent = _lcm(self.exponent, n)
        # index strides, lexicographic (first coordinate most significant)
        strides = []
        acc = 1
        for n in reversed(mods):
            strides.append(acc)
            acc *= n
        self._strides = tuple(reversed(strides))

    # -- value semantics ------------------------------------------------
    def __eq__(self, other) -> bool:
        return isinstance(other, AbelianGroup) and self.moduli == other.moduli

    def __hash__(self) -> int:
        return hash(("AbelianGroup", self.moduli))

    def __repr__(self) -> str:
        return f"AbelianGroup({list(self.moduli)})"

    def __str__(self) -> str:
        return ",".join(str(n) for n in self.moduli) if self.moduli else "1"

    # -- elements --------------------------------------------------------
    def element(self, coords: Sequence[int]) -> "GroupElement":
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.rank:
            raise SpecError(f"expected {self.rank} coordinates, got {len(coords)}")
        coords = tuple(c % n for c, n in zip(coords, self.moduli))
        return GroupElement(self, coords)

    @property
    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * self.rank)

    @ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
    def elements(self) -> Tuple["GroupElement", ...]:
        return tuple(GroupElement(self, c) for c in it.product(*[range(n) for n in self.moduli]))

    def __iter__(self):
        return iter(self.elements())

    def __len__(self) -> int:
        return self.order

    def index(self, g: "GroupElement") -> int:
        self._check_member(g)
        return sum(c * s for c, s in zip(g.coords, self._strides))

    def from_index(self, i: int) -> "GroupElement":
        if not 0 <= i < self.order:
            raise SpecError(f"element index {i} out of range for order {self.order}")
        return self.elements()[i]

    def _check_member(self, g: "GroupElement") -> None:
        if g.group.moduli != self.moduli:
            raise SpecError(f"element of {g.group} used with {self}")

    # -- arithmetic --------------------------------------------------------
    def add(self, a: "GroupElement", b: "GroupElement") -> "GroupElement":
        self._check_member(a)
        self._check_member(b)
        return GroupElement(self, tuple((x + y) % n for x, y, n in zip(a.coords, b.coords, self.moduli)))

    # -- index tables (hot-path plumbing) -----------------------------------
    @ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
    def coords_matrix(self) -> np.ndarray:
        coords = np.array(list(it.product(*[range(n) for n in self.moduli])), dtype=np.int64)
        return _frozen(coords.reshape(self.order, self.rank))

    @ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
    def add_table(self) -> np.ndarray:
        """add_table[i, j] = index(element_i + element_j)."""
        idx = np.arange(self.order)
        acc = np.zeros((self.order, self.order), dtype=np.int64)
        for n, s in zip(self.moduli, self._strides):
            d = (idx // s) % n
            acc += ((d[:, None] + d[None, :]) % n) * s
        return _frozen(acc.astype(np.int32))

    @ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
    def neg_table(self) -> np.ndarray:
        idx = np.arange(self.order)
        acc = np.zeros(self.order, dtype=np.int64)
        for n, s in zip(self.moduli, self._strides):
            d = (idx // s) % n
            acc += ((-d) % n) * s
        return _frozen(acc.astype(np.int32))

    @ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
    def sub_table(self) -> np.ndarray:
        """sub_table[t, g] = index(element_t - element_g)."""
        return _frozen(self.add_table()[:, self.neg_table()])


@dataclass(frozen=True)
class GroupElement:
    group: AbelianGroup
    coords: Tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.group.rank:
            raise SpecError("coordinate length does not match group rank")

    def __add__(self, other: "GroupElement") -> "GroupElement":
        return self.group.add(self, other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupElement)
            and self.group.moduli == other.group.moduli
            and self.coords == other.coords
        )

    def __hash__(self) -> int:
        return hash((self.group.moduli, self.coords))

    def __lt__(self, other: "GroupElement") -> bool:
        return self.coords < other.coords

    def __repr__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coords) + ")"

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    @property
    def index(self) -> int:
        return self.group.index(self)


def make_group(moduli: Sequence[int]) -> AbelianGroup:
    """Build Z_{n_1} + ... + Z_{n_r}; the empty sequence gives the trivial group."""
    return AbelianGroup(moduli)


def parse_group(text: str) -> AbelianGroup:
    """Parse the serialized form "n1,n2,..." (e.g. "6,3"); "1" is trivial."""
    text = text.strip()
    if not text:
        raise SpecError("empty group specification")
    try:
        mods = [int(p) for p in text.split(",")]
    except ValueError as exc:
        raise SpecError(f"cannot parse group specification {text!r}") from exc
    if mods == [1]:
        return AbelianGroup([])
    return AbelianGroup(mods)


def parse_element(group: AbelianGroup, text: str) -> GroupElement:
    try:
        coords = [int(p) for p in text.strip().split(",")]
    except ValueError as exc:
        raise SpecError(f"cannot parse element {text!r}") from exc
    return group.element(coords)


def parse_element_set(group: AbelianGroup, text: str) -> FrozenSet[GroupElement]:
    """Parse "1,0;2,0;0,1" into a set of elements."""
    text = text.strip()
    if not text:
        return frozenset()
    return frozenset(parse_element(group, part) for part in text.split(";") if part.strip())


def format_element(g: GroupElement) -> str:
    return ",".join(str(c) for c in g.coords)


# ---------------------------------------------------------------------------
# subgroups


@dataclass(frozen=True)
class Subgroup:
    """A subgroup of a parent group, as the ascending indices of its
    elements; subgroups with the same elements are equal."""

    group: AbelianGroup
    indices: Tuple[int, ...]

    @property
    def elements(self) -> Tuple[GroupElement, ...]:
        els = self.group.elements()
        return tuple(els[i] for i in self.indices)

    @property
    def order(self) -> int:
        return len(self.indices)

    def __contains__(self, g: GroupElement) -> bool:
        return g in self.element_set()

    @ft.cached_property
    def _members(self) -> FrozenSet[GroupElement]:
        return frozenset(self.elements)

    def element_set(self) -> FrozenSet[GroupElement]:
        return self._members


def generated_subgroup(group: AbelianGroup, gens: Iterable[GroupElement]) -> Subgroup:
    """Closure of a generating set; SpecError for another group's element."""
    indices = [group.index(g) for g in gens]
    return Subgroup(group, tuple(_closure(group, indices).tolist()))


def _closure(group: AbelianGroup, gens: Iterable[int]) -> np.ndarray:
    """Ascending indices of the subgroup generated by the elements with
    indices gens.

    H grows one generator g at a time: H + <g> is the disjoint union of
    the cosets H + kg for k below the first multiple of g already in H,
    so each step is one gather of the addition table."""
    add = group.add_table()
    member = np.zeros(group.order, dtype=bool)
    member[0] = True
    found = np.zeros(1, dtype=np.intp)
    for gi in map(int, gens):
        reps = [0]
        x = gi
        while not member[x]:
            reps.append(x)
            x = int(add[x, gi])
        if len(reps) > 1:
            found = add[np.ix_(found, reps)].ravel()
            member[found] = True
    return np.flatnonzero(member)


@ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
def all_subgroups(group: AbelianGroup) -> Tuple[Subgroup, ...]:
    """Every subgroup, by closing the set of cyclic subgroups under join,
    ordered by order and then by indices.

    For abelian groups the join of two subgroups is the set of pairwise
    sums, so each join is one gather of the addition table; the lattice
    is closed over frozensets of element indices.
    """
    add = group.add_table()
    coords = group.coords_matrix()
    mods = np.array(group.moduli, dtype=np.int64)
    strides = np.array(group._strides, dtype=np.int64)
    ks = np.arange(group.exponent, dtype=np.int64)[:, None]
    cyclic = {frozenset(((ks * coords[g] % mods) @ strides).tolist()) for g in range(group.order)}
    known = {frozenset([0])}
    frontier = list(known)
    while frontier:
        new_frontier = []
        for hset in frontier:
            hidx = list(hset)
            for cset in cyclic:
                if cset <= hset:
                    continue
                joined = frozenset(add[np.ix_(hidx, list(cset))].ravel().tolist())
                if joined not in known:
                    known.add(joined)
                    new_frontier.append(joined)
                    if len(known) > MAX_SUBGROUPS:
                        raise SpecError("subgroup lattice too large to enumerate")
        frontier = new_frontier
    return tuple(Subgroup(group, tuple(h)) for _, h in sorted((len(h), sorted(h)) for h in known))


@ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
def maximal_subgroups(group: AbelianGroup) -> Tuple[Subgroup, ...]:
    """Subgroups of prime index p (the maximal ones in an abelian group), by
    p and then by indices: the kernels of the maps x -> sum a_i x_i (mod p)
    onto Z_p, a_i = 0 where p does not divide n_i, first nonzero a_i = 1."""
    coords = group.coords_matrix()
    out = []
    for p in [p for p in range(2, group.order + 1) if group.order % p == 0 and is_prime(p)]:
        cols = [i for i, n in enumerate(group.moduli) if n % p == 0]
        maps = [a for a in it.product(range(p), repeat=len(cols)) if next((c for c in a if c), 0) == 1]
        kernels = coords[:, cols] @ np.array(maps).T % p == 0
        out += sorted(tuple(np.flatnonzero(z).tolist()) for z in kernels.T)
    return tuple(Subgroup(group, h) for h in out)


def check_orbit_bits(group: AbelianGroup) -> None:
    """Refuse (SpecError) a group whose G\\{0} has more than 63 {g,-g}
    orbits: a subset of them is numbered by an int64 id.  The orbit of i
    is counted at its least member, the i with i <= -i."""
    bits = int((np.arange(1, group.order) <= group.neg_table()[1:]).sum())
    if bits > 63:
        raise SpecError(f"subset ids are int64: {group} has {bits} > 63 orbit bits")


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# ---------------------------------------------------------------------------
# automorphisms


def aut_candidate_count(group: AbelianGroup) -> int:
    """Generator-image tuples that `automorphisms` tests: prod_ij gcd(n_i, n_j).

    The image of e_i must be killed by n_i, which leaves gcd(n_i, n_j)
    residues in coordinate j.
    """
    return prod(gcd(ni, nj) for ni in group.moduli for nj in group.moduli)


@ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
def automorphisms(group: AbelianGroup) -> np.ndarray:
    """All automorphisms as a read-only (|Aut|, n) int32 array; row a maps
    element index i to a[i].  Rows are in lexicographic order.

    The generator-image tuples are walked in fixed-size chunks.  Each tuple
    is decoded straight into the indices of the images of e_1..e_r: entry
    (i, j) of the image of e_i is a multiple of m_j / gcd(m_i, m_j) below
    m_j, so no reduction is needed.  Every other element is filled in
    index order from the addition table: p = c * s_i + q, with i the first
    nonzero coordinate of p, s_i its stride, c >= 1 and q < s_i, has
    a[p] = add[a[p - s_i], a[s_i]], one gather per block of s_i elements.
    A homomorphism is kept iff its kernel is trivial.

    Rows are sorted on the generator columns s_i alone: a[p] depends only
    on a at indices below p and at a generator position s_i <= p, so the
    first column where two distinct rows differ is a generator column, and
    their order on the generator columns (ascending position) is their
    full lexicographic order.

    Refused (SpecError) when |G| > MAX_AUT_ORDER or when more than
    MAX_AUT_CANDIDATES tuples would be walked.
    """
    if group.order > MAX_AUT_ORDER:
        raise SpecError(f"automorphism enumeration limited to order {MAX_AUT_ORDER}")
    total = aut_candidate_count(group)
    if total > MAX_AUT_CANDIDATES:
        raise SpecError(
            f"automorphism enumeration over {group} would test {total} generator images,"
            f" above the limit {MAX_AUT_CANDIDATES}"
        )
    n, mods, strides = group.order, group.moduli, group._strides
    # the image of e_i (m_i > 1) is one of Q_i = prod_j gcd(m_i, m_j)
    # indices: coordinate j is a multiple of m_j / gcd(m_i, m_j) below m_j,
    # so the index needs no reduction; a tuple is one digit of radix Q_i
    # per generator
    images = []
    for mi, si in zip(mods, strides):
        if mi > 1:
            u = np.arange(prod(gcd(mi, mj) for mj in mods))
            index = np.zeros(len(u), dtype=np.int32)
            for mj, sj in zip(mods, strides):
                u, digit = np.divmod(u, gcd(mi, mj))
                index += digit * (mj // gcd(mi, mj) * sj)
            images.append((si, index))
    flat = group.add_table().ravel()
    chunk = max(1, AUT_CHUNK_ENTRIES // n)
    kept: List[np.ndarray] = []
    for start in range(0, total, chunk):
        t = np.arange(start, min(start + chunk, total), dtype=np.int64)
        acc = np.zeros((n, len(t)), dtype=np.int32)
        for s, index in images:
            t, digit = np.divmod(t, len(index))
            acc[s] = index[digit]
        # rows [0, s) hold the elements whose coordinates before i are 0;
        # row c * s + q is row (c - 1) * s + q plus e_i, one block per c
        # (block c = 1 starts at e_i itself, rewritten with its own value)
        for m, s in zip(mods[::-1], strides[::-1]):
            for c in range(1, m):
                # indices are below n * n by construction; "clip" skips the
                # buffered bounds check that "raise" does with out=
                idx = acc[(c - 1) * s : c * s] * n + acc[s]
                np.take(flat, idx, out=acc[c * s : (c + 1) * s], mode="clip")
        # a homomorphism of a finite group is a bijection iff only 0 maps to 0
        kept.append(acc[:, (acc[1:] != 0).all(axis=0)].T)
    perms = np.concatenate(kept)
    if images:  # the trivial group has no generator and one row
        # indices below 256 sort as uint8 keys, by radix sort
        keys = perms.T[[s for s, _ in images]].astype(np.min_scalar_type(n - 1))
        perms = perms[np.lexsort(keys)]
    return _frozen(perms)


@ft.lru_cache(maxsize=GROUP_CACHE_SIZE)
def _lex_keys(group: AbelianGroup) -> np.ndarray:
    """(W, n, |Aut|) uint32 table, W = ceil(n / 32): entry [w, i, a] is
    bit 31 - a[i] % 32 when a[i] // 32 == w, and 0 otherwise.

    Summed over the elements of a set S, column a holds the W words of the
    indicator of a(S), element 0 in the top bit of word 0: images of
    distinct elements are distinct bits, so the sum is the bitwise OR.  All
    images of S have |S| elements, and among sets of one size the
    lexicographically larger word column is the lexicographically smaller
    set.  The automorphism rows are in lexicographic order, so column 0 is
    the identity: summed over S, it holds the words of S itself.
    """
    aut = automorphisms(group)
    bits = np.uint32(1) << np.arange(31, -1, -1, dtype=np.uint32)
    # a C-ordered operand gives a C-ordered table, whose rows gather fast
    bit = np.ascontiguousarray(bits[aut & 31].T)
    words = np.arange(-(-group.order // 32))[:, None, None]
    return _frozen(np.where(aut.T >> 5 == words, bit, np.uint32(0)))


def aut_classes(
    group: AbelianGroup, sets: Sequence[Iterable[int]]
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...], int]]:
    """Split a family of index sets into Aut(G)-classes: one (canonical
    form, member positions, orbit size) per class, in order of first member.

    The canonical form is the lexicographically least image of the class,
    the image whose indicator words are lexicographically largest; the
    orbit size is |Aut(G)| / |Stab(S)|, the number of distinct images.
    Every set's own words are column 0 of `_lex_keys`, as the identity is
    the least automorphism row.  Each pass takes the first unassigned set
    S, puts the word columns of all images of S beside those of the
    unassigned sets, and runs one `np.lexsort` (word 0 most significant):
    a run of equal columns holding an image is one image, and the sets in
    such a run are the members.  The last image run is the canonical form.
    """
    keys = _lex_keys(group)
    n_aut = keys.shape[2]
    sets = [list(s) for s in sets]
    ind = np.zeros((len(sets), group.order), dtype=np.uint32)
    ind[
        np.repeat(np.arange(len(sets)), [len(s) for s in sets]),
        np.fromiter(it.chain.from_iterable(sets), dtype=np.intp),
    ] = 1
    # distinct bits, so the product is their OR: exact in uint32
    words = (ind @ keys[:, :, 0].T).T
    rest = np.arange(len(sets))
    out = []
    while rest.size:
        images = keys[:, np.flatnonzero(ind[rest[0]])].sum(axis=1, dtype=np.uint32)
        cols = np.concatenate([images, words[:, rest]], axis=1)
        # sorted as 16-bit halves, most significant first: numpy sorts
        # 16-bit keys stably by radix, several times faster than 32-bit ones
        halves = np.stack([cols >> 16, cols & 0xFFFF], axis=1).astype(np.uint16)
        order = np.lexsort(halves.reshape(-1, cols.shape[1])[::-1])
        cols = cols[:, order]
        run = np.cumsum(np.concatenate([[False], (cols[:, 1:] != cols[:, :-1]).any(axis=0)]))
        image = order < n_aut
        has_image = np.zeros(run[-1] + 1, dtype=bool)
        has_image[run[image]] = True
        bits = np.unpackbits(cols[:, np.flatnonzero(image)[-1]].astype(">u4").view(np.uint8))
        picked = np.zeros(len(rest), dtype=bool)
        picked[order[has_image[run] & ~image] - n_aut] = True
        out.append(
            (tuple(np.flatnonzero(bits).tolist()), tuple(rest[picked].tolist()), int(has_image.sum()))
        )
        rest = rest[~picked]
    return out


def canonicalize_connection_set(group: AbelianGroup, indices: Iterable[int]) -> Tuple[int, ...]:
    """Lexicographically least Aut(G)-image of an index set."""
    return aut_classes(group, [indices])[0][0]
