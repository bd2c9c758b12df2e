"""Suspension flows over substitutions.

A suspension flow replaces each symbolic position by a tile whose duration
is the roof value of its letter; the flow moves at unit speed through the
tiles.  This module provides: certified self-similar roofs (transpose
Perron eigenvectors, kept as exact field coordinates when the dominant
eigenvalue is irrational), twisted ergodic integrals with explicit
boundary-correction bounds, product upper bounds on those integrals driven
by a return word, a log-Holder continuity certificate for spectral
measures of the flow, the second-eigenvalue growth cocycle with its
renormalization property, the induced functional on cylindrical functions,
the ergodic-integral decomposition into cocycle main term plus remainder,
and the zero-frequency scaling experiment.

Orbit anchors are encoded as (tile offset into the canonical fixed point,
time offset inside that tile); window averaging along one orbit stands in
for invariant-measure sampling, which unique ergodicity justifies.  The
growth cocycle and the occupation times read one block source,
``_orbit_blocks``: supertiles at anchor 0, a walk of level-0 tiles elsewhere.

Exact time.  Tile walks (twisted ergodic integrals, and occupation times
and the growth cocycle at positive anchors) keep time on one integer
clock: with D the lcm of the roof denominators, a tile of letter c lasts
the integer roof[c]*D, tile ends are running integer sums, and a tile end
T lies within a horizon h exactly when T <= floor(h*D).  The twist phase
at T is the integer ratio ((p*T) mod (q*D)) / (q*D) for omega = p/q.
Results convert to Fraction once, at the end, and equal those of a walk
in Fraction arithmetic: the walk covers the same rationals, and Python's
int/int true division rounds correctly, as the float of a Fraction does,
so every float is unchanged too.  The certified generator of the
eigenvalue field is built once per minimal polynomial and memoised.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath import libmp

from .algebraic import (
    AlgebraicInteger,
    RootDisk,
    ZThetaElement,
    _mpf_to_fraction,
    _RND,
    _poly_derivative,
    _poly_divexact,
    _poly_gcd,
    _poly_sign_scaled,
    _primitive_part,
    certify_roots,
    classify,
    prop_alg_constants,
    qt_value_interval,
    zt_mul_theta,
)
from .errors import (
    BudgetExceeded,
    DegenerateF,
    NotFound,
    NotMeanZero,
    NotPrimitive,
    WrongClass,
)
from .riesz import as_exact
from .spectral import (
    PI_SQUARED_UPPER,
    DiophConstants,
    _dist_to_int,
    _distance_product,
    _level_distances,
    _prefactors,
    _product_depth,
    dioph_constants,
)
from .substitution import (
    Substitution,
    _count_power,
    abelianization,
    as_word,
    char_poly,
    find_return_word,
    fixed_point_letter,
    fixed_point_prefix,
    is_primitive,
    lengths_at,
    perron_data,
    return_word_power,
    substitution_matrix,
    tiling_lengths_at,
)

# ---------------------------------------------------------------------------
# field values: Z[theta] numerators over one denominator, on the kernel of
# ``algebraic`` (multiplication by theta and interval Horner enclosures)


@lru_cache(maxsize=64)
def _field_generator(min_poly: tuple[int, ...]) -> AlgebraicInteger:
    """The certified dominant root of the minimal polynomial; memoised
    because ``from_poly`` certifies every conjugate afresh on each call."""
    return AlgebraicInteger.from_poly(min_poly, 128)


def _field_numerators(
    coords: Sequence[Sequence[Fraction]],
) -> tuple[list[tuple[int, ...]], int]:
    """Field coordinates as integer numerators over their least common
    denominator."""
    den = math.lcm(*(c.denominator for row in coords for c in row))
    nums = [tuple(c.numerator * (den // c.denominator) for c in row) for row in coords]
    return nums, den


def _combine(weights: Sequence[int], nums: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Numerators of sum_i weights[i] * nums[i]."""
    return tuple(sum(w * x for w, x in zip(weights, col)) for col in zip(*nums))


# ---------------------------------------------------------------------------
# the flow object


@dataclass(frozen=True)
class SuspensionFlow:
    """A substitution with a positive roof vector.

    ``roof`` holds exact rational tile durations; for irrational
    self-similar roofs these are midpoints of certified enclosures of
    half-width at most ``roof_width``.  When the roof is the transpose
    Perron eigenvector with irrational dominant eigenvalue, ``s_coords``
    stores the exact field coordinates of each entry in the power basis of
    theta and ``min_poly`` its minimal polynomial (descending), enabling
    exact renormalization arithmetic."""

    zeta: Substitution
    roof: tuple[Fraction, ...]
    self_similar: bool
    theta: float
    theta_interval: tuple[Fraction, Fraction]
    min_poly: tuple[int, ...] | None = None
    s_coords: tuple[tuple[Fraction, ...], ...] | None = None
    roof_width: Fraction = Fraction(0)

    def __post_init__(self):
        if len(self.roof) != self.zeta.m:
            raise ValueError("roof length must match the alphabet size")
        if any(s <= 0 for s in self.roof):
            raise ValueError("roof values must be strictly positive")

    @property
    def min_roof(self) -> Fraction:
        return min(self.roof)

    @property
    def max_roof(self) -> Fraction:
        return max(self.roof)


def make_flow(
    zeta: Substitution, roof: Sequence, normalize: bool = True
) -> SuspensionFlow:
    """Flow with an explicitly given rational roof, simplex-normalized by
    default; self-similarity is detected by exact comparison (only possible
    for rational roofs when the dominant eigenvalue is an integer)."""
    r = tuple(as_exact(s) for s in roof)
    if len(r) != zeta.m:
        raise ValueError("roof length must match the alphabet size")
    if any(s <= 0 for s in r):
        raise ValueError("roof values must be strictly positive")
    if normalize:
        total = sum(r)
        r = tuple(s / total for s in r)
    image = tiling_lengths_at(zeta, 1, r)  # transpose matrix applied to the roof
    pd = perron_data(substitution_matrix(zeta), precision_bits=96)
    lo, hi = pd.theta_interval
    self_similar = lo == hi and all(x == lo * s for x, s in zip(image, r))
    return SuspensionFlow(
        zeta=zeta,
        roof=r,
        self_similar=self_similar,
        theta=float(pd.theta),
        theta_interval=(lo, hi),
    )


def _integer_product(disks: Sequence[RootDisk]) -> tuple[int, ...] | None:
    """prod (x - z) over the disks' roots z (descending), when each
    coefficient's enclosure holds exactly one integer; else None.  With
    centers c, radii r and M = |Re c| + |Im c|, the coefficient of x^(s-k)
    is within e_k(M + r) - e_k(M) of the centers' one."""
    C, lo, hi = [(Fraction(1), Fraction(0))], [Fraction(1)], [Fraction(1)]
    for disk in disks:
        (cr, ci), r = disk.center_fractions(), disk.radius_fraction()
        M = abs(cr) + abs(ci)
        C = [(a - cr * u + ci * v, b - cr * v - ci * u)
             for (a, b), (u, v) in zip(C + [(0, 0)], [(0, 0)] + C)]
        lo = [a + M * u for a, u in zip(lo + [0], [0] + lo)]
        hi = [a + (M + r) * u for a, u in zip(hi + [0], [0] + hi)]
    out = []
    for (x, y), d, e in zip(C, lo, hi):
        err = e - d
        n = math.floor(x + err)  # the largest integer in the enclosure, if any
        if abs(y) > err or not n - 1 < x - err <= n:
            return None
        out.append(n)
    return tuple(out)


def _theta_min_poly(
    zeta: Substitution, theta_interval: tuple[Fraction, Fraction] | None = None
) -> tuple[int, ...]:
    """Minimal polynomial (descending, monic) of the dominant eigenvalue:
    the least-degree monic integer factor of the characteristic polynomial
    that vanishes on the certified dominant bracket ``theta_interval``
    (certified here at 96 bits when not given).  Candidates are the
    ``_integer_product`` of the subsets of the squarefree part's certified
    roots that hold theta, smallest first; the first that divides the
    squarefree part exactly and changes sign on the bracket is returned."""
    S = substitution_matrix(zeta)
    p = tuple(reversed(char_poly(S)))
    sqf = _poly_divexact(p, _poly_gcd(p, _poly_derivative(p)))
    if theta_interval is None:
        theta_interval = perron_data(S, precision_bits=96).theta_interval
    lo, hi = theta_interval
    disks = certify_roots(sqf, 128)
    at = [d for d in disks if d.is_real and d.real_interval()[0] <= hi
          and lo <= d.real_interval()[1]]
    if len(at) == 1:
        others = [d for d in disks if d is not at[0]]
        for k in range(len(disks)):
            for subset in combinations(others, k):
                cand = _integer_product(at + list(subset))
                if cand is None or _poly_sign_scaled(
                    cand, lo.numerator, lo.denominator
                ) * _poly_sign_scaled(cand, hi.numerator, hi.denominator) > 0:
                    continue
                try:
                    _poly_divexact(sqf, cand)
                except ArithmeticError:
                    continue
                return cand
    raise NotFound(
        "no factor of the characteristic polynomial brackets the dominant "
        "eigenvalue"
    )


def self_similar_roof(
    zeta: Substitution, precision_bits: int = 160
) -> SuspensionFlow:
    """The flow whose roof is the simplex-normalized Perron eigenvector of
    the transpose count matrix, computed exactly.

    The normalized eigenvector is the unique solution of one linear system
    over the rationals (see ``_normalized_eigenvector``); its entries are
    field coordinates in the power basis of the eigenvalue, and the eigen
    identity is re-checked on their integer numerators.  Integer dominant
    eigenvalue: the roof is exact.  Irrational: certified rational
    enclosures of the entries back the numeric roof."""
    if not is_primitive(substitution_matrix(zeta)).primitive:
        raise NotPrimitive("the substitution must be primitive")
    S = substitution_matrix(zeta)
    m = zeta.m
    pd = perron_data(S, precision_bits=max(96, precision_bits))
    min_poly = _theta_min_poly(zeta, pd.theta_interval)
    d = len(min_poly) - 1
    coords = _normalized_eigenvector(S, min_poly)

    # symbolic re-check of the eigen identity on the integer numerators
    nums, den = _field_numerators(coords)
    for i in range(m):
        image = _combine([S[j][i] for j in range(m)], nums)
        if image != zt_mul_theta(ZThetaElement(nums[i]), min_poly).coords:
            raise ArithmeticError("eigenvector identity failed in the field")

    if d == 1:
        theta = Fraction(-min_poly[1])
        roof = tuple(c for (c,) in coords)
        if not all(r > 0 for r in roof):
            raise ArithmeticError("dominant eigenvector is not positive")
        return SuspensionFlow(
            zeta=zeta,
            roof=roof,
            self_similar=True,
            theta=float(theta),
            theta_interval=(theta, theta),
            min_poly=min_poly,
            s_coords=coords,
            roof_width=Fraction(0),
        )

    ai = _field_generator(min_poly)
    width_bits = max(96, precision_bits)
    target = Fraction(1, 2**precision_bits)
    while True:
        lo, hi = ai.real_bracket(width_bits)
        vals = [qt_value_interval(x, den, lo, hi) for x in nums]
        if max(vhi - vlo for vlo, vhi in vals) <= 2 * target:
            break
        width_bits *= 2
    if not all(vlo > 0 for vlo, _ in vals):
        raise ArithmeticError("dominant eigenvector is not positive")
    roof = tuple((vlo + vhi) / 2 for vlo, vhi in vals)
    return SuspensionFlow(
        zeta=zeta,
        roof=roof,
        self_similar=True,
        theta=float(pd.theta),
        theta_interval=(lo, hi),
        min_poly=min_poly,
        s_coords=coords,
        roof_width=target,
    )


def _normalized_eigenvector(
    S: Sequence[Sequence[int]], min_poly: tuple[int, ...]
) -> tuple[tuple[Fraction, ...], ...]:
    """Power-basis coordinates of the eigenvector c of S^t for theta whose
    entries sum to 1.

    The unknowns are the m*d rational coordinates of c and a scale t; the
    rows are (S^t (x) I - I (x) C) c = 0, with C the companion matrix of
    the minimal polynomial (multiplication by theta), and sum_j c_j = t,
    one row per coordinate.  The eigenvalue is simple, so the null space is
    one-dimensional and t = 1 picks the normalized eigenvector."""
    m, d = len(S), len(min_poly) - 1
    n = m * d
    # C[l], column l of C, holds the coordinates of theta * theta^l
    basis = [ZThetaElement(tuple(int(k == l) for k in range(d))) for l in range(d)]
    C = [zt_mul_theta(e, min_poly).coords for e in basis]
    rows = []
    for i in range(m):
        for k in range(d):
            row = [0] * (n + 1)
            for j in range(m):
                row[j * d + k] += S[j][i]
            for l in range(d):
                row[i * d + l] -= C[l][k]
            rows.append(row)
    for k in range(d):
        rows.append([int(u % d == k) for u in range(n)] + [-int(k == 0)])
    vec = _rational_nullspace(rows)
    t = vec[n]
    return tuple(tuple(vec[j * d + l] / t for l in range(d)) for j in range(m))


def _rational_nullspace(A: Sequence[Sequence[int]]) -> list[Fraction]:
    """The spanning vector of the null space of a rational matrix of any
    shape, by Gauss-Jordan elimination; the null space must be
    one-dimensional."""
    M = [[Fraction(x) for x in row] for row in A]
    rows, cols = len(M), len(M[0])
    pivots: dict[int, int] = {}
    r = 0
    for col in range(cols):
        sel = None
        for i in range(r, rows):
            if M[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        M[r], M[sel] = M[sel], M[r]
        inv = 1 / M[r][col]
        M[r] = [x * inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][col] != 0:
                f = M[i][col]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots[col] = r
        r += 1
    free = [c for c in range(cols) if c not in pivots]
    if len(free) != 1:
        raise ArithmeticError(
            f"null space has dimension {len(free)}; expected a unique eigenvector"
        )
    f0 = free[0]
    vec = [Fraction(0)] * cols
    vec[f0] = Fraction(1)
    for col, row in pivots.items():
        vec[col] = -M[row][f0]
    return vec


# ---------------------------------------------------------------------------
# tiling lengths


def word_tiling_length(flow: SuspensionFlow, w) -> Fraction:
    word = as_word(w)
    return sum((flow.roof[c - 1] for c in word), Fraction(0))


def level_lengths(flow: SuspensionFlow, k: int) -> tuple[Fraction, ...]:
    """Tiling length of the k-fold image of each letter."""
    return tiling_lengths_at(flow.zeta, k, flow.roof)


def length_identity_defect(flow: SuspensionFlow, v, n: int) -> Fraction:
    """Gap between the two routes to the weighted length of the n-fold
    image of v: count-matrix action on the roof versus multiplication by
    the n-th power of the eigenvalue.

    Exactly zero (verified in field coordinates) for exactly self-similar
    roofs; otherwise a certified numeric gap."""
    word = as_word(v)
    m = flow.zeta.m
    ab = abelianization(word, m)
    if flow.s_coords is not None and flow.min_poly is not None:
        nums, den = _field_numerators(flow.s_coords)
        el = ZThetaElement(_combine(ab, nums))
        for _ in range(n):
            el = zt_mul_theta(el, flow.min_poly)
        Sn = _count_power(flow.zeta, n)
        mat = _combine([sum(s * a for s, a in zip(row, ab)) for row in Sn], nums)
        if mat == el.coords:
            return Fraction(0)
        diff = tuple(a - b for a, b in zip(mat, el.coords))
        dlo, dhi = qt_value_interval(diff, den, *flow.theta_interval)
        return max(abs(dlo), abs(dhi))
    lens = level_lengths(flow, n)
    via_matrix = sum(ab[i] * lens[i] for i in range(m))
    lo, hi = flow.theta_interval
    base_len = word_tiling_length(flow, word)
    return max(
        abs(via_matrix - base_len * lo**n), abs(via_matrix - base_len * hi**n)
    )


# ---------------------------------------------------------------------------
# twisted ergodic integrals


@dataclass(frozen=True)
class ErgodicIntegral:
    """Twisted integral along the flow orbit with a boundary-correction
    bound: |true integral - value| <= correction_bound.  The slack comes
    from the anchor's time offset and the gap between the horizon R and
    the last full tile boundary; at a zero twist the value is the exact
    occupation time and the bound is zero."""

    value: complex
    correction_bound: float
    omega: Fraction
    R: Fraction
    R_effective: Fraction
    anchor: int
    t_offset: Fraction
    tiles_used: int


def _orbit_letters(flow: SuspensionFlow, anchor: int, span: Fraction, budget: int):
    need = int(float(span) / float(flow.min_roof)) + 2
    if need > budget:
        raise BudgetExceeded(
            f"horizon {float(span):g} spans about {need} tiles, over the "
            f"budget {budget}"
        )
    text = fixed_point_prefix(flow.zeta, anchor + need)
    return text[anchor:]


def _tile_clock(flow: SuspensionFlow, letters) -> tuple[int, list[int]]:
    """The integer tile clock of a walk: D, the lcm of the roof
    denominators, and the end of each tile of ``letters`` measured from the
    start of the first in units of 1/D, so every tile lasts roof[c]*D."""
    D = math.lcm(*(s.denominator for s in flow.roof))
    durs = (0,) + tuple(s.numerator * (D // s.denominator) for s in flow.roof)
    return D, list(accumulate(map(durs.__getitem__, letters)))


def _whole_tiles(D: int, ends: list[int], t: Fraction) -> tuple[int, Fraction]:
    """Number of leading tiles that end by time t, and the time they reach.

    An integer tile end T satisfies T <= t*D exactly when T <= floor(t*D),
    so the comparison needs no rational arithmetic."""
    n = bisect_right(ends, math.floor(t * D))
    return n, Fraction(ends[n - 1] if n else 0, D)


def twisted_ergodic_integral(
    flow: SuspensionFlow,
    x_anchor: int,
    t_offset,
    a: int,
    omega,
    R,
    budget: int = 500_000,
) -> ErgodicIntegral:
    """Integral of e^(-2 pi i omega t) against the indicator of letter a
    along the orbit started at the anchor, over the horizon [0, R].

    The value is assembled tile by tile: each full tile of letter a inside
    the horizon contributes its closed-form integral, which aggregates to
    the weighted phase sum of the covered word prefix times the one-tile
    prefactor (e^(2 pi i omega s_a) - 1)/(2 pi i omega); the clipped tail
    tile and the anchor offset are not integrated but covered by the
    returned correction bound.

    Exact time: the walk runs on the integer clock of the module docstring,
    so tile ends and phases are integer sums and integer ratios, not
    Fraction sums; only the clipped last tile and an offset u that is not
    a multiple of 1/D stay Fraction terms.  The phase sum is accumulated
    tile by tile in orbit order, so the value is the same float as that of
    a Fraction walk."""
    if not 1 <= a <= flow.zeta.m:
        raise ValueError(f"letter {a} outside alphabet of size {flow.zeta.m}")
    if x_anchor < 0:
        raise ValueError("anchor must be nonnegative")
    om = as_exact(omega)
    RR = as_exact(R)
    if RR <= 0:
        raise ValueError("R must be positive")
    u = as_exact(t_offset)
    letters = _orbit_letters(flow, x_anchor, RR + flow.max_roof, budget)
    if not 0 <= u < flow.roof[letters[0] - 1]:
        raise ValueError("t_offset must lie inside the anchor tile")

    D, ends = _tile_clock(flow, letters)
    horizon = RR + u
    n, reached = _whole_tiles(D, ends, horizon)
    if om == 0:
        # the tiles meeting [0, R] are the whole ones plus the one that
        # straddles the horizon; u cuts the first of them, R the straddler
        rest = horizon - reached
        straddle = letters[n] if rest and n < len(letters) else None
        total = letters[:n].count(a) * flow.roof[a - 1]
        if straddle == a:
            total += rest
        if letters[0] == a:
            total -= u
        return ErgodicIntegral(
            value=complex(float(total), 0.0),
            correction_bound=0.0,
            omega=om,
            R=RR,
            R_effective=RR,
            anchor=x_anchor,
            t_offset=u,
            tiles_used=n + (straddle is not None),
        )

    s_a = flow.roof[a - 1]
    pref = (cmath.exp(2j * math.pi * float((om * s_a) % 1)) - 1) / (
        2j * math.pi * float(om)
    )
    # the phase (omega t) mod 1 at a tile end T/D, as a ratio of integers
    p = om.numerator
    qD = om.denominator * D
    phase_sum = 0j
    for c, T in zip(letters, ends[:n]):
        if c == a:
            phase_sum += cmath.exp(-2j * math.pi * ((p * T) % qD / qD))
    value = cmath.exp(2j * math.pi * float((om * u) % 1)) * pref * phase_sum
    return ErgodicIntegral(
        value=value,
        correction_bound=float(u + (horizon - reached)),
        omega=om,
        R=RR,
        R_effective=reached,
        anchor=x_anchor,
        t_offset=u,
        tiles_used=n,
    )


# ---------------------------------------------------------------------------
# product bounds for the flow


def flow_dioph_constants(
    flow: SuspensionFlow, v, k_max: int = 30
) -> DiophConstants:
    """Product-bound constants adapted to the roof: the count-matrix side
    is unchanged, the length-comparison constants absorb the extreme roof
    values (so the spread widens by at most the roof ratio)."""
    base = dioph_constants(flow.zeta, v, k_max=k_max)
    c_lower = base.c_lower * flow.min_roof
    c_upper = base.c_upper * flow.max_roof
    lo, hi = flow.theta_interval
    L = max(len(im) for im in flow.zeta.images)
    Cprime, C2, Cpp = _prefactors(c_lower, c_upper, lo, hi, L)
    return replace(
        base,
        Cprime=Cprime,
        C2=C2,
        Cpp=Cpp,
        c_lower=c_lower,
        c_upper=c_upper,
    )


def _self_similar_distances(
    flow: SuspensionFlow, word, omega: Fraction, count: int
) -> list[Fraction]:
    """Certified lower bounds for the distances to the nearest integer of
    omega times the weighted lengths of the level-k images of the word,
    k < count, via exact field coordinates and interval refinement."""
    nums, den = _field_numerators(flow.s_coords)
    base = _combine(abelianization(word, flow.zeta.m), nums)
    cur = ZThetaElement(tuple(omega.numerator * x for x in base))
    den *= omega.denominator
    ai = _field_generator(flow.min_poly)
    width_bits = 96
    lo, hi = ai.real_bracket(width_bits)
    out = []
    for _ in range(count):
        while True:
            vlo, vhi = qt_value_interval(cur.coords, den, lo, hi)
            if vhi - vlo < Fraction(1, 2**48):
                break
            width_bits *= 2
            lo, hi = ai.real_bracket(width_bits)
        if math.floor(vhi) >= math.ceil(vlo):
            out.append(Fraction(0))
        else:
            out.append(min(_dist_to_int(vlo), _dist_to_int(vhi)))
        cur = zt_mul_theta(cur, ai)
    return out


@dataclass(frozen=True)
class FlowProductBound:
    """Return-word product bound at horizon R: the prefactor times R times
    the product of (1 - c1 dist^2) over the resolved levels.  Distances
    are certified lower bounds, so the bound stays valid."""

    omega: Fraction
    R: Fraction
    n_star: int
    distances: tuple[Fraction, ...]
    product: Fraction
    bound: Fraction
    exact_path: bool


def flow_product_bound(
    flow: SuspensionFlow, v, omega, R, consts: DiophConstants
) -> FlowProductBound:
    """Uniform upper bound for |twisted_ergodic_integral| over all anchors:
    Cpp * R * prod_(k <= floor(log_theta R - C2)) (1 - c1 ||omega L_k||^2)
    where L_k is the roof-weighted length of the level-k image of the
    return word.

    For exactly self-similar irrational roofs the weighted lengths follow
    the exact field path (multiplication by theta); otherwise they are
    exact rationals in the roof values.  A zero twist, or R below the
    first threshold, leaves the product empty."""
    word = as_word(v)
    if word != consts.v:
        raise ValueError("the return word must match the constants")
    om = as_exact(omega)
    RR = as_exact(R)
    if RR <= 0:
        raise ValueError("R must be positive")
    n_star = _product_depth(RR, consts.theta, consts.C2)
    exact_path = (
        flow.s_coords is not None
        and flow.min_poly is not None
        and len(flow.min_poly) - 1 >= 2
    )
    count = max(0, n_star + 1)
    if exact_path and count:
        dists = _self_similar_distances(flow, word, om, count)
    else:
        _, dists = _level_distances(flow.zeta, word, om, count, flow.roof)
    _, product = _distance_product(consts.c1, dists)
    return FlowProductBound(
        omega=om,
        R=RR,
        n_star=n_star,
        distances=tuple(dists),
        product=product,
        bound=consts.Cpp * RR * product,
        exact_path=exact_path,
    )


# ---------------------------------------------------------------------------
# log-Holder certificate


@dataclass(frozen=True)
class LogHolderRow:
    omega: float
    r: float
    bound: float
    fejer_direct: float
    in_regime: bool


@dataclass(frozen=True)
class LogHolderTable:
    """Certificate rows bounding spectral mass near each twist:
    sigma([omega - r, omega + r]) <= C_B * (log_theta(1/r))^(-gamma).

    gamma = 2 c1 alpha combines the product-bound constant c1 with the
    window-escape exponent alpha of the dominant eigenvalue.  Rows with
    r above r0 = min(1/2, 1/(2 B theta^C2)) fall outside the regime where
    the product bound has at least one factor and are flagged.  Each row
    carries a direct window-sampled kernel bound for comparison."""

    gamma: float
    c1: Fraction
    alpha: float
    C_B: float
    r0: float
    B: float
    zeta_power: int
    rows: tuple[LogHolderRow, ...]


def log_holder_certificate(
    flow: SuspensionFlow,
    B,
    r_grid: Sequence,
    v=None,
    k_max: int = 20,
    omega_grid: Sequence | None = None,
    anchors: int = 6,
) -> LogHolderTable:
    """Log-Holder modulus table for twists with |omega| in [1/B, B].

    Requires the dominant eigenvalue to have a conjugate outside the unit
    circle (raises ``WrongClass`` otherwise, e.g. for Pisot data).  The
    return-word condition may need a power of the substitution; the power
    is found automatically and reported."""
    Bf = float(B)
    if Bf <= 1:
        raise ValueError("B must exceed 1")
    min_poly = flow.min_poly or _theta_min_poly(flow.zeta)
    ai = _field_generator(min_poly)
    cls = classify(ai)
    if cls.kind != "HasConjugateOutside":
        raise WrongClass(
            f"dominant eigenvalue classifies as {cls.kind}; the certificate "
            "needs a conjugate outside the unit circle"
        )
    alg = prop_alg_constants(ai)

    if v is None:
        rw = find_return_word(flow.zeta)
        word = rw.v
        zeta_power = rw.power
    else:
        word = as_word(v)
        zeta_power = return_word_power(flow.zeta, word, power_cap=12)
    zeta_p = flow.zeta.power(zeta_power) if zeta_power > 1 else flow.zeta
    flow_p = SuspensionFlow(
        zeta=zeta_p,
        roof=flow.roof,
        self_similar=flow.self_similar,
        theta=flow.theta**zeta_power,
        theta_interval=(
            flow.theta_interval[0] ** zeta_power,
            flow.theta_interval[1] ** zeta_power,
        ),
    )
    consts = flow_dioph_constants(flow_p, word, k_max=k_max)

    # 2 c1 alpha at 53 bits, with 2 c1 rounded down to 53 bits first
    c1 = 2 * consts.c1
    c1 = libmp.from_rational(c1.numerator, c1.denominator, 53, libmp.round_down)
    gamma = libmp.to_float(libmp.mpf_mul(alg.alpha._mpf_, c1, 53, _RND), rnd=_RND)
    C_B = PI_SQUARED_UPPER / 4 * float(consts.Cpp) ** 2
    r0 = min(0.5, 1.0 / (2 * Bf * consts.theta**consts.C2))

    if omega_grid is None:
        omega_grid = (1.0 / Bf, 1.0, Bf)
    rows = []
    stride = 97  # tile offset between sampled anchors
    for omf in omega_grid:
        om = as_exact(omf)
        if not 1 / as_exact(B) <= abs(om) <= as_exact(B):
            raise ValueError(f"omega {omf} outside [1/B, B]")
        for rr in r_grid:
            r = as_exact(rr)
            if r <= 0:
                raise ValueError("radii must be positive")
            logq = math.log(1 / float(r)) / math.log(consts.theta)
            bound = C_B * logq**-gamma if logq > 0 else math.inf
            Rwin = 1 / (2 * r)
            samples = []
            for i in range(anchors):
                ei = twisted_ergodic_integral(flow, i * stride, 0, 1, om, Rwin)
                samples.append(abs(ei.value) ** 2 / float(Rwin))
            G = sum(samples) / len(samples)
            fejer = PI_SQUARED_UPPER / (4 * float(Rwin)) * G
            rows.append(
                LogHolderRow(
                    omega=float(om),
                    r=float(r),
                    bound=bound,
                    fejer_direct=fejer,
                    in_regime=float(r) <= r0,
                )
            )
    return LogHolderTable(
        gamma=gamma,
        c1=consts.c1,
        alpha=float(alg.alpha),
        C_B=C_B,
        r0=r0,
        B=Bf,
        zeta_power=zeta_power,
        rows=tuple(rows),
    )


# ---------------------------------------------------------------------------
# the second-eigenvalue growth cocycle


@dataclass(frozen=True)
class Eigen2Data:
    theta2: Fraction
    e2: tuple[Fraction, ...]
    e2_star: tuple[Fraction, ...]


def eigen2_data(flow: SuspensionFlow) -> Eigen2Data:
    """Second eigenvalue with its biorthogonal eigenvector pair: e2 is the
    primitive integer eigenvector of the count matrix, e2_star the
    transpose eigenvector scaled so their pairing is 1.

    Scope: the second-largest eigenvalue by modulus must be real and
    rational — hence an integer, the matrix being integral with monic
    characteristic polynomial — of modulus above 1, with a strict modulus
    gap to the rest of the spectrum; raises ``WrongClass`` otherwise."""
    S = substitution_matrix(flow.zeta)
    m = flow.zeta.m
    if m < 2:
        raise WrongClass("a second eigenvalue needs at least two letters")
    eigs = np.linalg.eigvals(np.array(S, dtype=float))
    order = np.argsort(-np.abs(eigs))
    lam2 = eigs[order[1]]
    if abs(lam2.imag) > 1e-9:
        raise WrongClass("second eigenvalue is not real")
    t2 = round(float(lam2.real))
    on_root = _poly_sign_scaled(char_poly(S)[::-1], t2, 1) == 0
    if not on_root or abs(lam2.real - t2) > 1e-6:
        raise WrongClass(
            "the cocycle path here needs an integer second eigenvalue"
        )
    if abs(t2) <= 1:
        raise WrongClass(f"second eigenvalue {t2} has modulus <= 1")
    if m >= 3 and abs(abs(eigs[order[2]]) - abs(t2)) < 1e-9:
        raise WrongClass("no strict modulus gap below the second eigenvalue")
    theta2 = Fraction(t2)
    A = [
        [Fraction(S[i][j]) - (theta2 if i == j else 0) for j in range(m)]
        for i in range(m)
    ]
    e2v = tuple(map(Fraction, _primitive_part(_rational_nullspace(A))))
    At = [
        [Fraction(S[j][i]) - (theta2 if i == j else 0) for j in range(m)]
        for i in range(m)
    ]
    e2s = _rational_nullspace(At)
    pairing = sum(a * b for a, b in zip(e2v, e2s))
    if pairing == 0:
        raise ArithmeticError("degenerate eigenvector pairing")
    e2_star = tuple(c / pairing for c in e2s)
    return Eigen2Data(theta2=theta2, e2=e2v, e2_star=e2_star)


def _supertile_blocks(flow: SuspensionFlow, t: Fraction):
    """Greedy decomposition of [0, t] from the start of the canonical
    fixed point into maximal supertiles.

    Returns (blocks, straddle_letter, remaining): blocks are (level,
    letter) pairs in orbit order; the leftover time ``remaining`` is less
    than one level-0 tile and sits at the start of a tile of type
    ``straddle_letter`` (None when t lands exactly on a boundary).  The
    block count is of order top level times maximal image length.  Each
    greedy pass stops inside the image it reads: u starts with zeta(first),
    t is shorter than the level-(K+1) tile of ``first``, and below the top
    the time left is shorter than the tile descended into."""
    zeta = flow.zeta
    first, k = fixed_point_letter(zeta)
    if k != 1:
        raise NotFound(
            "the canonical fixed point needs a power of the substitution; "
            "pass zeta.power(k) instead"
        )
    K = 0
    while level_lengths(flow, K + 1)[first - 1] <= t:
        K += 1
    blocks: list[tuple[int, int]] = []
    remaining = t
    queue = zeta.images[first - 1]
    for level in range(K, -1, -1):
        lens = level_lengths(flow, level)
        qpos = 0
        while lens[queue[qpos] - 1] <= remaining:
            blocks.append((level, queue[qpos]))
            remaining -= lens[queue[qpos] - 1]
            qpos += 1
        c = queue[qpos]
        queue = zeta.images[c - 1]
    return blocks, (c if remaining > 0 else None), remaining


def _orbit_blocks(flow: SuspensionFlow, x_anchor: int, t: Fraction, budget: int):
    """(blocks, straddle_letter, remaining) of [0, t] from the anchor, as
    ``_supertile_blocks`` gives them at anchor 0; a positive anchor walks
    level-0 tiles under the budget."""
    if x_anchor == 0:
        return _supertile_blocks(flow, t)
    letters = _orbit_letters(flow, x_anchor, t + flow.max_roof, budget)
    n, reached = _whole_tiles(*_tile_clock(flow, letters), t)
    remaining = t - reached
    straddle = letters[n] if remaining and n < len(letters) else None
    return [(0, c) for c in letters[:n]], straddle, remaining


@dataclass(frozen=True)
class CocycleEvaluation:
    """Growth-cocycle value over [0, t] from the anchor: full tiles and
    supertiles contribute theta2^level (e2*)_letter; a straddling tile at
    the cut is refined ``k_used`` levels down and the unresolved mass is
    covered by ``error_bound``.  ``value_exact`` carries the rational
    value when the refinement terminated (then the error is zero)."""

    x_id: int
    t: Fraction
    k_used: int
    value: float
    error_bound: float
    exact: bool
    value_exact: Fraction | None


def cocycle_phi2(
    flow: SuspensionFlow,
    x_anchor: int,
    t,
    k_levels: int = 30,
    budget: int = 500_000,
) -> CocycleEvaluation:
    """Evaluate the second-eigenvalue growth cocycle over [0, t].

    Anchor 0 sits at the start of the canonical fixed point and uses the
    logarithmic supertile decomposition, so t may be exponentially large;
    positive anchors walk level-0 tiles directly under the budget.  The
    straddling tile at the cut is subdivided through the substitution up
    to ``k_levels`` times, scaling the weight by 1/theta2 per level; what
    remains unresolved is covered by the geometric-tail error bound."""
    ed = eigen2_data(flow)
    tt = as_exact(t)
    if tt < 0:
        raise ValueError("t must be nonnegative")
    if k_levels < 0:
        raise ValueError("k_levels must be nonnegative")
    if tt == 0:
        return CocycleEvaluation(
            x_id=x_anchor,
            t=tt,
            k_used=0,
            value=0.0,
            error_bound=0.0,
            exact=True,
            value_exact=Fraction(0),
        )
    zeta = flow.zeta
    e2s = ed.e2_star
    th2 = ed.theta2

    blocks, straddle, remaining = _orbit_blocks(flow, x_anchor, tt, budget)
    total = Fraction(0)
    for level, c in blocks:
        total += th2**level * e2s[c - 1]

    # refine the straddling tile through the substitution
    depth = 0
    err = Fraction(0)
    lo, hi = flow.theta_interval
    exact_lengths = lo == hi
    c = straddle
    if c is not None and remaining > 0:
        scale = Fraction(1)
        theta_pow = Fraction(1)
        while depth < k_levels and remaining > 0:
            depth += 1
            scale /= th2
            theta_pow *= lo if exact_lengths else (lo + hi) / 2
            nxt = None
            for dletter in zeta.images[c - 1]:
                dur = flow.roof[dletter - 1] / theta_pow
                if dur <= remaining:
                    total += scale * e2s[dletter - 1]
                    remaining -= dur
                else:
                    nxt = dletter
                    break
            if nxt is None:
                break
            c = nxt
        if remaining > 0:
            L = max(len(im) for im in zeta.images)
            maxe = max(abs(x) for x in e2s)
            q = 1 / abs(th2)
            err = maxe * L * abs(scale) * q / (1 - q)
    exact = remaining == 0 and (exact_lengths or depth == 0)
    return CocycleEvaluation(
        x_id=x_anchor,
        t=tt,
        k_used=depth,
        value=float(total),
        error_bound=float(err),
        exact=exact,
        value_exact=total if exact else None,
    )


def renormalize_anchor(flow: SuspensionFlow, n0: int) -> int:
    """Tile index of the substitution image of the anchor: the prefix
    before the anchor maps to its image, whose letter count is the new
    offset."""
    if n0 < 0:
        raise ValueError("anchor must be nonnegative")
    if n0 == 0:
        return 0
    text = fixed_point_prefix(flow.zeta, n0)
    lens = lengths_at(flow.zeta, 1)
    return sum(lens[c - 1] for c in text)


# ---------------------------------------------------------------------------
# the induced functional on cylindrical functions


def m_phi2_minus(flow: SuspensionFlow, psi_list: Sequence) -> float:
    """Pairing of a cylindrical function with the decaying cocycle
    direction: sum_j (e2)_j integral_0^(s_j) psi_j(t) dt.

    Each per-letter profile may be a constant, a polynomial coefficient
    sequence (ascending, integrated exactly), or a callable (numeric
    quadrature)."""
    ed = eigen2_data(flow)
    if len(psi_list) != flow.zeta.m:
        raise ValueError("one profile per letter required")
    numeric = 0.0
    exact_total = Fraction(0)
    for j, psi in enumerate(psi_list):
        s_j = flow.roof[j]
        if callable(psi):
            from scipy.integrate import quad

            val, _ = quad(psi, 0.0, float(s_j), limit=200)
            numeric += float(ed.e2[j]) * val
        elif isinstance(psi, (list, tuple)):
            acc = Fraction(0)
            for i, cc in enumerate(psi):
                acc += as_exact(cc) * s_j ** (i + 1) / (i + 1)
            exact_total += ed.e2[j] * acc
        else:
            exact_total += ed.e2[j] * as_exact(psi) * s_j
    return numeric + float(exact_total)


# ---------------------------------------------------------------------------
# occupation times and the ergodic decomposition


def occupation_times(
    flow: SuspensionFlow, t, x_anchor: int = 0, budget: int = 500_000
) -> tuple[Fraction, ...]:
    """Exact time spent in each letter's cylinder along [0, t] from the
    anchor tile start; the logarithmic supertile route serves anchor 0, a
    budgeted tile walk the rest."""
    tt = as_exact(t)
    if tt < 0:
        raise ValueError("t must be nonnegative")
    zeta = flow.zeta
    m = zeta.m
    out = [Fraction(0)] * m
    if tt == 0:
        return tuple(out)

    blocks, straddle, remaining = _orbit_blocks(flow, x_anchor, tt, budget)
    for (level, c), count in Counter(blocks).items():
        Pk = _count_power(zeta, level)
        for aa in range(m):
            out[aa] += count * Pk[aa][c - 1] * flow.roof[aa]
    if straddle is not None and remaining > 0:
        out[straddle - 1] += remaining  # partial tile, same letter
    return tuple(out)


def _frequency_measures(
    flow: SuspensionFlow,
) -> tuple[tuple[Fraction, ...], bool]:
    """Normalized roof-weighted letter measures r_j s_j / <r, s>; exact
    rationals when the dominant eigenvalue is an integer, else dyadic
    stand-ins of a high-precision evaluation (flagged inexact)."""
    S = substitution_matrix(flow.zeta)
    m = flow.zeta.m
    pd = perron_data(S, precision_bits=96)
    lo, hi = pd.theta_interval
    if lo == hi:
        A = [
            [Fraction(S[i][j]) - (lo if i == j else 0) for j in range(m)]
            for i in range(m)
        ]
        r = _rational_nullspace(A)
        if all(x <= 0 for x in r):
            r = [-x for x in r]
        tot = sum(x * s for x, s in zip(r, flow.roof))
        return tuple(x * s / tot for x, s in zip(r, flow.roof)), True
    # r_j s_j and their sum at 200 bits
    vals = []
    tot = libmp.fzero
    for j in range(m):
        num = libmp.from_int(flow.roof[j].numerator, 200, _RND)
        den = libmp.from_int(flow.roof[j].denominator, 200, _RND)
        v = libmp.mpf_mul(pd.r_vec[j]._mpf_, num, 200, _RND)
        vals.append(libmp.mpf_div(v, den, 200, _RND))
        tot = libmp.mpf_add(tot, vals[-1], 200, _RND)
    return tuple(
        _mpf_to_fraction(mp.make_mpf(libmp.mpf_div(v, tot, 200, _RND)))
        for v in vals
    ), False


def _check_mean_zero(flow: SuspensionFlow, d: Sequence[Fraction]) -> None:
    freqs, exact = _frequency_measures(flow)
    mean = sum(dj * rj for dj, rj in zip(d, freqs))
    # inexact frequencies carry dyadic error well below this threshold
    if (exact and mean != 0) or (not exact and abs(mean) > Fraction(1, 2**80)):
        raise NotMeanZero(f"roof-weighted mean {float(mean):g} is nonzero")


@dataclass(frozen=True)
class DecompositionRow:
    t: float
    S_value: float
    main_term: float
    remainder: float
    exponent: float | None


@dataclass(frozen=True)
class DecompositionReport:
    """Per-horizon split of the zero-twist ergodic integral into cocycle
    main term plus remainder; ``max_exponent`` is the largest observed
    log|remainder| / log t, to be compared against the cocycle exponent
    alpha = log_theta(theta2)."""

    alpha: float
    m_value: float
    rows: tuple[DecompositionRow, ...]
    max_exponent: float


def ergodic_decomposition_check(
    flow: SuspensionFlow,
    d_coeffs: Sequence,
    t_grid: Sequence,
    x_anchor: int = 0,
    k_levels: int = 40,
) -> DecompositionReport:
    """Split the zero-twist ergodic integral of a mean-zero cylindrical
    step function (one coefficient per letter) into the cocycle main term
    and a remainder, on a grid of horizons."""
    m = flow.zeta.m
    if len(d_coeffs) != m:
        raise ValueError("one coefficient per letter required")
    d = [as_exact(c) for c in d_coeffs]
    ed = eigen2_data(flow)
    if ed.theta2 <= 1:
        raise WrongClass("the decomposition needs a real second eigenvalue > 1")
    _check_mean_zero(flow, d)
    mval = m_phi2_minus(flow, [float(c) for c in d])
    alpha = math.log(float(ed.theta2)) / math.log(flow.theta)
    rows = []
    max_exp = -math.inf
    for t in t_grid:
        tt = as_exact(t)
        if tt == 0:
            rows.append(DecompositionRow(0.0, 0.0, 0.0, 0.0, None))
            continue
        occ = occupation_times(flow, tt, x_anchor=x_anchor)
        S_val = float(sum(dj * oj for dj, oj in zip(d, occ)))
        coc = cocycle_phi2(flow, x_anchor, tt, k_levels=k_levels)
        main = coc.value * mval
        rem = S_val - main
        expo = (
            math.log(abs(rem)) / math.log(float(tt))
            if rem != 0 and float(tt) > 1
            else None
        )
        if expo is not None:
            max_exp = max(max_exp, expo)
        rows.append(
            DecompositionRow(
                t=float(tt),
                S_value=S_val,
                main_term=main,
                remainder=rem,
                exponent=expo,
            )
        )
    return DecompositionReport(
        alpha=alpha, m_value=mval, rows=tuple(rows), max_exponent=max_exp
    )


# ---------------------------------------------------------------------------
# zero-frequency scaling experiment


@dataclass(frozen=True)
class ZeroScalingReport:
    """Ratio sequence of windowed squared ergodic integrals against the
    predicted power of the window size.

    ``values[i]`` approximates T^-2 mean_x |integral f(h_t x) profile(t/T)
    dt|^2 at T = theta^N; ``ratios[i]`` divides by T^(2 alpha - 2).
    Stabilization of the ratio sequence is the experiment's output; the
    stabilization level depends on the test profile and is recorded, not
    predicted.  ``truncation_error`` is the profile value at the cut."""

    N_values: tuple[int, ...]
    T_values: tuple[float, ...]
    values: tuple[float, ...]
    ratios: tuple[float, ...]
    alpha: float
    spread: float
    truncation_error: float
    anchors: int
    c: float


def zero_scaling_experiment(
    flow: SuspensionFlow,
    d_coeffs: Sequence,
    N_range: Sequence[int],
    c: float = 1.0,
    psi_scale: float = 1.0,
    anchors: int = 64,
    orbit_factor: float = 3.0,
) -> ZeroScalingReport:
    """Windowed scaling of zero-twist ergodic integrals at T = theta^N.

    The test profile is the Gaussian exp(-pi (c t / T)^2) on t >= 0,
    truncated where it falls below 1e-12; each tile contributes its exact
    error-function integral, vectorized over the whole orbit window.
    Anchors are evenly spaced tile offsets along one orbit of
    ``orbit_factor`` times the largest window, so that the sampled windows
    decorrelate; the anchor mean stands in for the invariant-measure
    average."""
    m = flow.zeta.m
    if len(d_coeffs) != m:
        raise ValueError("one coefficient per letter required")
    if anchors < 1:
        raise ValueError("anchors must be positive")
    if c <= 0:
        raise ValueError("c must be positive")
    d = [as_exact(x) for x in d_coeffs]
    ed = eigen2_data(flow)
    if ed.theta2 <= 1:
        raise WrongClass("the scaling law needs a real second eigenvalue > 1")
    _check_mean_zero(flow, d)
    mval = m_phi2_minus(flow, [float(x) for x in d])
    if mval == 0:
        raise DegenerateF("the function pairs to zero with the cocycle")
    alpha = math.log(float(ed.theta2)) / math.log(flow.theta)

    from scipy.special import erf

    N_list = sorted(int(n) for n in N_range)
    if not N_list:
        raise ValueError("N_range is empty")
    if orbit_factor < 1.1:
        raise ValueError("orbit_factor must leave room beyond one window")
    theta = flow.theta
    u_max = math.sqrt(12 * math.log(10) / math.pi) / c  # profile hits 1e-12
    horizon = u_max * theta ** N_list[-1]
    need = int(orbit_factor * horizon / float(flow.min_roof)) + anchors + 4
    text = np.array(fixed_point_prefix(flow.zeta, need), dtype=np.int64)
    roof_f = np.array([float(s) for s in flow.roof])
    bounds = np.concatenate(([0.0], np.cumsum(roof_f[text - 1])))
    weights = np.array([float(x) for x in d])[text - 1]

    values = []
    ratios = []
    Ts = []
    for N in N_list:
        T = theta**N
        Ts.append(T)
        lim = u_max * T
        lim_tiles = int(lim / float(flow.min_roof)) + 2
        step = max(1, (len(text) - lim_tiles - 2) // anchors)
        acc = 0.0
        for i in range(anchors):
            start = i * step
            t0 = bounds[start]
            hi_idx = min(
                int(np.searchsorted(bounds, t0 + lim, side="right")), len(text)
            )
            lo_u = (bounds[start:hi_idx] - t0) * (c / T)
            hi_u = (
                np.minimum(bounds[start + 1 : hi_idx + 1], t0 + lim) - t0
            ) * (c / T)
            cells = (
                erf(math.sqrt(math.pi) * hi_u)
                - erf(math.sqrt(math.pi) * lo_u)
            ) / 2
            integral = (
                psi_scale
                * (T / c)
                * float(np.dot(weights[start:hi_idx], cells))
            )
            acc += integral * integral
        val = acc / anchors / (T * T)
        values.append(val)
        ratios.append(val / T ** (2 * alpha - 2))
    spread = max(ratios) / min(ratios) - 1 if min(ratios) > 0 else math.inf
    return ZeroScalingReport(
        N_values=tuple(N_list),
        T_values=tuple(Ts),
        values=tuple(values),
        ratios=tuple(ratios),
        alpha=alpha,
        spread=spread,
        truncation_error=math.exp(-math.pi * (c * u_max) ** 2),
        anchors=anchors,
        c=c,
    )
