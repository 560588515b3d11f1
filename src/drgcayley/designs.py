"""Design-theoretic checkers attached to the Cayley graph machinery.

Relative difference sets and polynomial addition sets are verified by
exact convolution in the integer group algebra.  A monomial addition-set
search over cyclic groups runs a stack of arithmetic filters (difference
counting, character-value field membership, coset decompositions) and
refuses any case they leave open.
The module also provides Ma-style coset decompositions, direction sets
of affine point sets over prime fields, and the level-set certificates
carried by small-diameter antipodal covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .algebra import AlgebraElement, fourier_coefficient
from .cyclotomic import CyclotomicInteger, zeta
from .errors import InvariantViolation, NotConnectedError, SpecError
from .graphs import (
    CayleyGraph,
    DRGCheck,
    bipartition_subgroup,
    build,
    check_distance_regular,
    imprimitivity,
    spectrum,
)
from .groups import (
    AbelianGroup,
    GroupElement,
    Subgroup,
    format_element,
    generated_subgroup,
    is_prime,
    make_group,
    subgroup_from_elements,
)


# ---------------------------------------------------------------------------
# Small number-theoretic helpers


def _prime_factors(n: int) -> Tuple[int, ...]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _squarefree_part(n: int) -> int:
    """Squarefree part of n, keeping the sign."""
    if n == 0:
        return 0
    out = 1 if n > 0 else -1
    n = abs(n)
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            out *= d
            n //= d
        d += 1
    return out * n


def _sqrt_in_cyclotomic(d: int, m: int) -> bool:
    """Whether the square root of d lies in the m-th cyclotomic field.

    Works through the squarefree part and the conductor of the quadratic
    field it generates; m is normalised first since conductors 2 mod 4
    name no new field.
    """
    d0 = _squarefree_part(d)
    if d0 == 1:
        return True
    w = m // 2 if m % 4 == 2 else m
    disc = d0 if d0 % 4 == 1 else 4 * d0
    return w % abs(disc) == 0


# ---------------------------------------------------------------------------
# Relative difference sets


@dataclass(frozen=True)
class RDSCheck:
    """Outcome of the relative difference set test.

    params holds (m, r, k, mu) on success: subgroup index, subgroup
    order, set size and the common difference count outside the
    subgroup.  A refusal names the first element (index order) whose
    count breaks the pattern.
    """

    ok: bool
    params: Optional[Tuple[int, int, int, int]] = None
    witness: Optional[GroupElement] = None
    expected: Optional[int] = None
    actual: Optional[int] = None

    def to_dict(self) -> dict:
        out: dict = {"ok": self.ok}
        if self.ok:
            m, r, k, mu = self.params
            out["params"] = {"m": m, "r": r, "k": k, "mu": mu}
        else:
            out["witness"] = format_element(self.witness)
            out["expected"] = self.expected
            out["actual"] = self.actual
        return out


def _as_subgroup(group: AbelianGroup, forbidden) -> Subgroup:
    if isinstance(forbidden, Subgroup):
        if forbidden.group != group:
            raise SpecError("forbidden subgroup belongs to a different group")
        return forbidden
    return subgroup_from_elements(group, forbidden)


def is_relative_difference_set(group: AbelianGroup, dset: Iterable[GroupElement],
                               forbidden) -> RDSCheck:
    """Decide whether dset is a relative difference set for the forbidden
    subgroup by expanding the difference multiset exactly.

    The defining identity asks the convolution of the set with its
    reversal to equal k at the identity, zero on the rest of the
    subgroup, and a constant mu outside it.
    """
    sub = _as_subgroup(group, forbidden)
    if sub.order == group.order:
        raise SpecError("forbidden subgroup must be proper")
    dd = frozenset(dset)
    for g in dd:
        group.index(g)
    k = len(dd)
    a = AlgebraElement.from_set(group, dd)
    conv = a * a.reversed()
    r = sub.order
    outside = group.order - r
    mu: Optional[int] = None
    if k * (k - 1) % outside == 0:
        mu = k * (k - 1) // outside
    nset = sub.element_set()
    for g in group.elements():
        c = conv.coeff(g)
        if g.is_zero:
            want: Optional[int] = k
        elif g in nset:
            want = 0
        else:
            want = mu
        if c != want:
            return RDSCheck(False, None, g, want, c)
    return RDSCheck(True, (group.order // r, r, k, mu))


def rds_order_constraint(group: AbelianGroup, dset: Iterable[GroupElement],
                         forbidden) -> bool:
    """Order condition for relative difference sets with parameters of the
    shape (nm, n, nm, m): every group element must have order dividing
    nm, except that the cyclic group of order 4 passes when n = 2 and
    m = 1.  Inputs that are not relative difference sets of that shape
    are rejected.
    """
    chk = is_relative_difference_set(group, dset, forbidden)
    if not chk.ok:
        raise SpecError(
            f"not a relative difference set: count {chk.actual} at "
            f"{format_element(chk.witness)}, expected {chk.expected}")
    m_idx, r, k, mu = chk.params
    if m_idx != k or k != r * mu:
        raise SpecError(
            f"parameters (m={m_idx}, r={r}, k={k}, mu={mu}) lack the (nm, n, nm, m) shape")
    nm = k
    if all(nm % group.order_of(g) == 0 for g in group.elements()):
        return True
    if r == 2 and mu == 1 and group.order == 4 and group.exponent == 4:
        return True
    return False


# ---------------------------------------------------------------------------
# Polynomial addition sets


@dataclass(frozen=True)
class PASCheck:
    """Outcome of the polynomial addition set test; m is the multiplier of
    the full group sum on success, and a refusal records the first
    element whose coefficient differs from the one at the identity."""

    ok: bool
    m: Optional[int] = None
    witness: Optional[GroupElement] = None
    residual: Optional[int] = None

    def to_dict(self) -> dict:
        if self.ok:
            return {"ok": True, "m": self.m}
        return {"ok": False, "witness": format_element(self.witness),
                "residual": self.residual}


def is_polynomial_addition_set(group: AbelianGroup, dset: Iterable[GroupElement],
                               poly: Sequence[int]) -> PASCheck:
    """Evaluate poly (ascending coefficients, constant term acting on the
    identity) at the indicator sum of dset and test the result for being
    an integer multiple of the full group sum."""
    coeffs = [int(c) for c in poly]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) < 2:
        raise SpecError("polynomial must have degree at least 1")
    dd = frozenset(dset)
    for g in dd:
        group.index(g)
    base = AlgebraElement.from_set(group, dd)
    acc = coeffs[0] * AlgebraElement.unit(group)
    power = AlgebraElement.unit(group)
    for c in coeffs[1:]:
        power = power * base
        if c:
            acc = acc + c * power
    ref = acc.coeff(group.zero)
    for g in group.elements():
        c = acc.coeff(g)
        if c != ref:
            return PASCheck(False, None, g, c - ref)
    return PASCheck(True, ref)


# ---------------------------------------------------------------------------
# Monomial addition set search over cyclic groups

_PAS_MAX_MODULUS = 40
_PAS_MAX_DEGREE = 5


def _b_candidates(t: int, n: int, bound: int) -> Tuple[int, ...]:
    # every nontrivial character value z has |z|^2 = t and z^n = b,
    # so b^2 = t^n; for odd n that already forces t to be a square
    if n % 2 == 0:
        w = t ** (n // 2)
    else:
        u = math.isqrt(t)
        if u * u != t:
            return ()
        w = u ** n
    return tuple(b for b in (w, -w) if abs(b) <= bound)


def _ma_coset_kill(v: int, t: int) -> bool:
    """p | v with p^2 | t makes every character sum divisible by p; the
    coset decomposition then forces the set to be a union of cosets of
    the order-p subgroup, so the convolution power is constant on those
    cosets and the monomial constant b would have to vanish."""
    return any(t % (p * p) == 0 for p in _prime_factors(v))


def _character_value_branches(v: int, t: int, n: int, b: int):
    """Describe the solutions z of z^n = b with |z|^2 = t inside the v-th
    cyclotomic field, one entry per admissible root-of-unity twist of
    z^2 / t.  Integer entries are rational solutions; None marks an
    irrational branch.  An empty result kills the (v, t, n, b) case."""
    ell = math.lcm(2, v)
    g = math.gcd(n, ell)
    t0 = _squarefree_part(t)
    out = []
    for j in range(g):
        gpp = g // math.gcd(g, j) if j else 1
        if n % 2 == 0:
            # the sign of b is pinned by (t * zeta)^(n/2)
            e = (j * (n // 2)) % g
            if e == 0:
                if b != t ** (n // 2):
                    continue
            elif 2 * e == g:
                if b != -(t ** (n // 2)):
                    continue
            else:
                continue
        if gpp == 2:
            d = -t0
        elif gpp == 4:
            # zeta_8 enters; fold it into the quadratic part
            if v % 8 == 0:
                d = t0
            elif t0 % 2 == 0:
                d = t0 // 2
            else:
                d = 2 * t0
        else:
            d = t0  # odd-order roots of unity have square roots in place
        if not _sqrt_in_cyclotomic(d, v):
            continue
        if gpp == 1 and t0 == 1:
            u = math.isqrt(t)
            if n % 2 == 0:
                out.extend((u, -u))
            else:
                out.append(u if b > 0 else -u)
        else:
            out.append(None)
    return tuple(dict.fromkeys(out))


def _rational_collapse_kill(v: int, k: int, branches) -> bool:
    """When every admissible character value is a rational integer, the
    indicator coefficients are pinned by Fourier inversion; integrality
    of the inverted sums then rules most cases out."""
    if any(x is None for x in branches):
        return False
    vals = sorted(set(branches))
    if len(vals) == 1:
        z = vals[0]
        for doff in (0, 1):
            for dzero in (0, 1):
                if (v * doff == k - z and v * dzero == k + z * (v - 1)
                        and k == (v - 1) * doff + dzero):
                    return False
        return True
    if len(vals) == 2:
        r2, r1 = vals
        den = r1 - r2
        feas = [d for d in (0, 1)
                if (v * d - k + r2) % den == 0
                and abs((v * d - k + r2) // den) <= v - 1]
        if not feas:
            return True
        if feas == [0] and k > 1:
            return True
        if feas == [1] and k < v - 1:
            return True
        # the value multiplicities must solve a feasible counting system
        for dzero in (0, 1):
            num = (v * dzero - k) - r2 * (v - 1)
            if num % den == 0 and 0 <= num // den <= v - 1:
                return False
        return True
    return False


def monomial_pas_search(v: Union[int, AbelianGroup], n: int,
                        bound: int) -> List[Tuple[FrozenSet[GroupElement], int]]:
    """Search Z_v for addition sets of x**n - b with 1 < |D| < v - 1 and
    |b| <= bound.

    The difference-count, character-field and coset filters rule out
    every (v, k, n, b) case of the domain (v <= 40, n <= 5) but
    (40, 13, 4, 81) and (40, 27, 4, 81), so the search returns [].  A
    case they leave open raises SpecError instead of enumerating its
    C(v, k) subsets: a bound of 81 or more at v = 40, n = 4 is refused.
    """
    if isinstance(v, AbelianGroup):
        if len(v.moduli) != 1:
            raise SpecError("the monomial search runs over cyclic groups")
        v = v.moduli[0]
    v, n, bound = int(v), int(n), int(bound)
    if not 2 <= v <= _PAS_MAX_MODULUS:
        raise SpecError(f"modulus must be between 2 and {_PAS_MAX_MODULUS}")
    if not 1 <= n <= _PAS_MAX_DEGREE:
        raise SpecError(f"degree must be between 1 and {_PAS_MAX_DEGREE}")
    if bound < 0:
        raise SpecError("bound must be non-negative")
    if n == 1:
        # x - b asks for D = b*e + m*G, so the indicator is constant off
        # the identity and |D| is one of 0, 1, v-1, v: the range is empty
        return []
    for k in range(2, v - 1):
        if (k * (k - 1)) % (v - 1):
            continue
        t = k - k * (k - 1) // (v - 1)
        for b in _b_candidates(t, n, bound):
            if (k ** n - b) % v or _ma_coset_kill(v, t):
                continue
            branches = _character_value_branches(v, t, n, b)
            if not branches or _rational_collapse_kill(v, k, branches):
                continue
            raise SpecError(
                f"monomial case (v, k, n, b) = ({v}, {k}, {n}, {b}) passes every filter;"
                f" deciding it needs C({v}, {k}) = {math.comb(v, k)} subsets"
            )
    return []


# ---------------------------------------------------------------------------
# Coset decomposition


def ma_decompose(group: AbelianGroup, element: AlgebraElement, p: int,
                 a: int = 1) -> Tuple[AlgebraElement, AlgebraElement]:
    """Split element as p**a * X1 + P * X2, with P the unique order-p
    subgroup of a cyclic Sylow p-part.

    The split exists whenever every character of order divisible by the
    full Sylow size has value divisible by p**a; that condition is
    verified exactly first and its failure is reported as a usage error.
    Non-negative inputs produce non-negative parts: each coset of P
    contributes its least residue to X2 (on the minimal-index coset
    representative) and the remainder to X1.
    """
    if not is_prime(p):
        raise SpecError("p must be prime")
    if a < 1:
        raise SpecError("the exponent a must be positive")
    if not isinstance(element, AlgebraElement) or element.group != group:
        raise SpecError("element must live in the group algebra of the given group")
    divis = [mi for mi in group.moduli if mi % p == 0]
    if not divis:
        raise SpecError("p does not divide the group order")
    if len(divis) > 1:
        raise SpecError("the Sylow p-subgroup is not cyclic")
    ps = 1
    mm = divis[0]
    while mm % p == 0:
        mm //= p
        ps *= p
    pa = p ** a
    for g in group.elements():
        if group.order_of(g) % ps:
            continue
        val = fourier_coefficient(group, element.coeffs, g)
        if any(c % pa for c in val.coeffs):
            raise SpecError(
                f"character sum at {format_element(g)} is not divisible by {pa}")
    i0 = list(group.moduli).index(divis[0])
    coords = [0] * len(group.moduli)
    coords[i0] = divis[0] // p
    psub = generated_subgroup(group, [group.element(coords)])
    x1 = np.zeros(group.order, dtype=np.int64)
    x2 = np.zeros(group.order, dtype=np.int64)
    seen = set()
    for g in group.elements():
        if group.index(g) in seen:
            continue
        members = sorted(group.index(g + h) for h in psub.elements)
        seen.update(members)
        vals = [int(element.coeffs[i]) for i in members]
        residues = {val % pa for val in vals}
        if len(residues) > 1:
            raise InvariantViolation(
                "coefficients are not congruent on a coset despite divisible character sums")
        c = residues.pop()
        x2[members[0]] = c
        for i, val in zip(members, vals):
            x1[i] = (val - c) // pa
    return AlgebraElement(group, x1), AlgebraElement(group, x2)


# ---------------------------------------------------------------------------
# Direction sets


@dataclass(frozen=True)
class DirectionSet:
    """Directions determined by an affine point set over F_p; the value p
    inside slopes stands for the vertical direction."""

    p: int
    slopes: FrozenSet[int]

    def __len__(self) -> int:
        return len(self.slopes)

    @property
    def has_infinity(self) -> bool:
        return self.p in self.slopes

    def labels(self) -> Tuple[str, ...]:
        out = [str(s) for s in sorted(s for s in self.slopes if s != self.p)]
        if self.has_infinity:
            out.append("inf")
        return tuple(out)

    def to_dict(self) -> dict:
        return {"p": self.p, "slopes": list(self.labels())}


def _normalize_points(p: int, points) -> List[Tuple[int, int]]:
    if not is_prime(p):
        raise SpecError("direction sets live over prime fields")
    pts = set()
    for w in points:
        if isinstance(w, GroupElement):
            if len(w.coords) != 2:
                raise SpecError("points must have two coordinates")
            x, y = w.coords
        else:
            x, y = w
        pts.add((int(x) % p, int(y) % p))
    if not 1 < len(pts) <= p:
        raise SpecError(f"need between 2 and {p} distinct points, got {len(pts)}")
    return sorted(pts)


def directions(p: int, points) -> DirectionSet:
    """Slopes spanned by the pairs of a set of between 2 and p points of
    the affine plane over F_p."""
    pts = _normalize_points(p, points)
    slopes = set()
    for (x1, y1), (x2, y2) in combinations(pts, 2):
        if x1 == x2:
            slopes.add(p)
        else:
            slopes.add(((y1 - y2) * pow(x1 - x2, -1, p)) % p)
    return DirectionSet(p, frozenset(slopes))


def direction_bound_check(p: int, points) -> str:
    """Classify a point set: "collinear" when a single direction occurs,
    "bound-holds" when at least (|W| + 3) / 2 directions occur.  The
    remaining answer "VIOLATION" cannot arise for sets of at most p
    points and would signal a bug."""
    pts = _normalize_points(p, points)
    dirs = directions(p, pts)
    if len(dirs) == 1:
        return "collinear"
    if 2 * len(dirs) >= len(pts) + 3:
        return "bound-holds"
    return "VIOLATION"


# ---------------------------------------------------------------------------
# Level-set certificates


@dataclass(frozen=True)
class LevelSetCertificate:
    """Verified level-set data of an antipodal cover: the fiber character
    index, the level set inside the base group, its eigenvalue, and the
    per-element mismatch of the defining character identity (all zero on
    any issued certificate)."""

    psi_index: int
    level_set: Tuple[GroupElement, ...]
    theta: Union[int, str]
    residual: Tuple[CyclotomicInteger, ...]

    def to_dict(self) -> dict:
        return {
            "psi": self.psi_index,
            "level_set": [format_element(g) for g in self.level_set],
            "theta": self.theta,
            "residual": [repr(x) for x in self.residual],
        }


@dataclass(frozen=True)
class CertificateOutcome:
    status: str  # "certificate" or "precondition-unmet"
    reason: str
    certificate: Optional[LevelSetCertificate] = None

    @property
    def ok(self) -> bool:
        return self.status == "certificate"

    def to_dict(self) -> dict:
        out = {"status": self.status, "reason": self.reason}
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_dict()
        return out


def _unmet(reason: str) -> CertificateOutcome:
    return CertificateOutcome("precondition-unmet", reason)


def _fiber_character_residuals(base: AbelianGroup, r: int, psi: int,
                               rsets: Sequence[set], bind: np.ndarray, scale,
                               id_term) -> List[CyclotomicInteger]:
    """Mismatch, per base element l, of
    scale * chi_l(B) - |base| * (sum_i psi(i) [(-l) in R_i] + id_term [l = 0])."""
    nb = base.order
    out = []
    for l in base.elements():
        lhs = scale * fourier_coefficient(base, bind, l)
        acc = CyclotomicInteger.from_int(0)
        neg = -l
        for i in range(r):
            if neg in rsets[i]:
                acc = acc + zeta(r, (psi * i) % r)
        if l.is_zero:
            acc = acc + id_term
        out.append(lhs - nb * acc)
    return out


def _power_identity_residuals(base: AbelianGroup, bset: Iterable[GroupElement],
                              two_delta, theta3, r: int) -> List[CyclotomicInteger]:
    """Mismatch, per base element, of the closed form for the r-th
    convolution power of the level set:
    (2 delta)^r B^r = |base|^(r-1) (((-theta3)^r - 1) G + |base| e)."""
    balg = AlgebraElement.from_set(base, bset)
    power = balg
    for _ in range(r - 1):
        power = power * balg
    nb = base.order
    lead = two_delta ** r
    bulk = ((-theta3) ** r - CyclotomicInteger.from_int(1)) * (nb ** (r - 1))
    out = []
    for g in base.elements():
        rhs = bulk + (nb ** r if g.is_zero else 0)
        out.append(lead * power.coeff(g) - rhs)
    return out


def _layer_sets(graph: CayleyGraph, base: AbelianGroup, r: int) -> List[set]:
    """Split the connection set by fiber coordinate into base-group sets."""
    rsets: List[set] = [set() for _ in range(r)]
    for s in graph.connection:
        b_el = base.element(s.coords[:-1])
        if b_el.is_zero:
            raise InvariantViolation("connection set meets the antipodal fiber")
        rsets[s.coords[-1] % r].add(b_el)
    return rsets


def _certificate_d3(graph: CayleyGraph, chk: DRGCheck, base: AbelianGroup,
                    r: int, psi: int) -> CertificateOutcome:
    group = graph.group
    nb = base.order
    rsets = _layer_sets(graph, base, r)
    tagged = [g for rs in rsets for g in rs]
    if len(tagged) != nb - 1 or len(set(tagged)) != nb - 1:
        raise InvariantViolation("fiber layers do not partition the base group")
    eig = spectrum(graph)
    if eig.count != 4:
        raise InvariantViolation("expected exactly four distinct eigenvalues")
    theta1, theta2, theta3 = eig.values[1], eig.values[2], eig.values[3]
    if theta2 != CyclotomicInteger.from_int(-1):
        raise InvariantViolation("middle eigenvalue is not -1")
    two_delta = theta1 - theta3
    sind = graph.indicator()
    vals = {}
    for g in base.elements():
        full = group.element(tuple(g.coords) + (psi,))
        vals[g] = fourier_coefficient(group, sind, full)
    for g, vv in vals.items():
        if vv != theta1 and vv != theta3:
            raise InvariantViolation(
                f"twisted character sum at {format_element(g)} misses both eigenvalues")
    bset = sorted(g for g in base.elements() if vals[g] == theta1)
    bind = np.zeros(nb, dtype=np.int64)
    bind[[base.index(g) for g in bset]] = 1
    residual = _fiber_character_residuals(base, r, psi, rsets, bind,
                                          two_delta, -theta3)
    if any(x != CyclotomicInteger.from_int(0) for x in residual):
        raise InvariantViolation("level-set character identity failed")
    if r == 2:
        bmem = set(bset)
        if base.zero in bmem:
            cset = [g for g in base.elements() if g not in bmem]
            thet = theta1
        else:
            cset = list(bset)
            thet = -theta3
        calg = AlgebraElement.from_set(base, cset)
        sq = calg * calg
        bulk = nb * (thet * thet - CyclotomicInteger.from_int(1))
        for g in base.elements():
            rhs = bulk + (nb * nb if g.is_zero else 0)
            if (two_delta * two_delta) * sq.coeff(g) != rhs:
                raise InvariantViolation("level-set square identity failed")
        try:
            side = check_distance_regular(build(base, cset))
        except (SpecError, NotConnectedError) as exc:
            raise InvariantViolation(f"level set is not a connection set: {exc}") from exc
        if not side.ok or side.array.d != 2:
            raise InvariantViolation("level-set graph is not strongly regular")
        lam = side.array.a_at(1)
        mu = side.array.c_at(2)
        gap2 = two_delta * two_delta
        if gap2 * lam != bulk or gap2 * mu != bulk:
            raise InvariantViolation("level-set graph parameters are off")
    else:
        residual_pow = _power_identity_residuals(base, bset, two_delta, theta3, r)
        if any(x != CyclotomicInteger.from_int(0) for x in residual_pow):
            raise InvariantViolation("level-set power identity failed")
        if theta1.is_rational_integer and theta3.is_rational_integer:
            gap = theta1.as_int() - theta3.as_int()
            if gap <= 0 or nb % gap:
                raise InvariantViolation("eigenvalue gap does not divide the base order")
            bconst = (nb // gap) ** r
            pas = is_polynomial_addition_set(base, bset,
                                             [-bconst] + [0] * (r - 1) + [1])
            if not pas.ok:
                raise InvariantViolation("addition-set reformulation failed")
    theta_out: Union[int, str]
    theta_out = theta1.as_int() if theta1.is_rational_integer else repr(theta1)
    cert = LevelSetCertificate(psi, tuple(bset), theta_out, tuple(residual))
    return CertificateOutcome("certificate", "verified", cert)


def _certificate_d4(graph: CayleyGraph, chk: DRGCheck, base: AbelianGroup,
                    r: int, psi: int) -> CertificateOutcome:
    group = graph.group
    nb = base.order
    half = bipartition_subgroup(graph, chk)
    fiber_gen = group.element((0,) * len(base.moduli) + (1,))
    if fiber_gen not in half:
        return _unmet("bipartition does not contain the fiber")
    m1 = {g for g in base.elements()
          if group.element(tuple(g.coords) + (0,)) in half}
    k = chk.array.k
    s = math.isqrt(k)
    if s * s != k:
        raise InvariantViolation("valency is not a perfect square")
    if (nb * r) % (2 * s):
        raise InvariantViolation("2 sqrt(k) does not divide the group order")
    rsets = _layer_sets(graph, base, r)
    tagged = [g for rs in rsets for g in rs]
    odd_part = [g for g in base.elements() if g not in m1]
    if sorted(tagged) != sorted(odd_part) or len(set(tagged)) != len(tagged):
        raise InvariantViolation("fiber layers do not partition the odd half")
    sind = graph.indicator()
    vals = {}
    for g in base.elements():
        full = group.element(tuple(g.coords) + (psi,))
        vals[g] = fourier_coefficient(group, sind, full)
    for g, vv in vals.items():
        if vv * vv != CyclotomicInteger.from_int(k):
            raise InvariantViolation(
                f"twisted character sum at {format_element(g)} does not square to the valency")
    bset = sorted(g for g in base.elements() if vals[g] == CyclotomicInteger.from_int(s))
    if 2 * len(bset) != nb:
        raise InvariantViolation("level set is not half the base group")
    bind = np.zeros(nb, dtype=np.int64)
    bind[[base.index(g) for g in bset]] = 1
    residual = _fiber_character_residuals(base, r, psi, rsets, bind,
                                          CyclotomicInteger.from_int(2 * s),
                                          CyclotomicInteger.from_int(s))
    if any(x != CyclotomicInteger.from_int(0) for x in residual):
        raise InvariantViolation("level-set character identity failed")
    cert = LevelSetCertificate(psi, tuple(bset), s, tuple(residual))
    return CertificateOutcome("certificate", "verified", cert)


def level_set_certificate(graph: CayleyGraph, psi_index: int) -> CertificateOutcome:
    """Extract and verify the eigenvalue level set of an antipodal cover
    whose antipodal class is the fiber over the last group coordinate.

    Diameter-3 covers must be non-bipartite; diameter-4 covers must be
    bipartite over an odd prime fiber.  Structural mismatches come back
    as a precondition-unmet outcome.  Once the preconditions hold, any
    failure of the certified identities raises InvariantViolation.
    """
    group = graph.group
    if len(group.moduli) < 2:
        return _unmet("group does not split off a fiber coordinate")
    r = group.moduli[-1]
    if not is_prime(r):
        return _unmet(f"fiber size {r} is not prime")
    if not 1 <= int(psi_index) < r:
        raise SpecError("psi must index a nontrivial fiber character")
    base = make_group(group.moduli[:-1])
    try:
        chk = check_distance_regular(graph)
    except NotConnectedError:
        return _unmet("graph is not connected")
    if not chk.ok:
        return _unmet("graph is not distance-regular")
    imp = imprimitivity(graph, chk)
    if not imp.antipodal:
        return _unmet("graph is not antipodal")
    fiber = frozenset(g for g in group.elements()
                      if all(c == 0 for c in g.coords[:-1]))
    if imp.antipodal_class.element_set() != fiber:
        return _unmet("antipodal class is not the fiber over the last coordinate")
    d = chk.array.d
    if d == 3:
        if imp.bipartite:
            return _unmet("diameter-3 covers must be non-bipartite here")
        return _certificate_d3(graph, chk, base, r, int(psi_index))
    if d == 4:
        if not imp.bipartite:
            return _unmet("diameter-4 covers must be bipartite here")
        if r == 2:
            return _unmet("diameter-4 covers need an odd prime fiber")
        return _certificate_d4(graph, chk, base, r, int(psi_index))
    return _unmet(f"diameter {d} carries no level-set certificate")
