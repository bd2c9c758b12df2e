"""Spectral-measure estimators and certificates for substitution systems.

The chain implemented here runs: twisted Birkhoff sums S_N^x(f, omega) ->
the averaged quantity G_N(f, omega) -> Fejer-kernel ball bounds for the
spectral measure sigma_f(B(omega, r)) -> certified product upper bounds
driven by a return word, with Holder exponents on the Diophantine sets
where the return-word lengths stay away from integers.  Also included:
the eigenvalue criterion (square-summability of those distances), lower
local-dimension bounds from transfer-matrix product growth, and growth
exponents of untwisted mean-zero Birkhoff sums.

Conventions.  Phases are e^(-2 pi i omega n) with 0-based positions, so
S_N^x(f, omega) = sum_a d_a Phi_a(x[0, N-1], omega) for f = sum_a d_a 1_[a].
All fractional-part computations run in exact rational arithmetic (floats
are converted to the exact dyadic rationals they denote), so the certified
product bounds contain no rounding leaps of faith.

The return-word certificates here and in ``flows`` share four helpers:
``_level_distances`` (the lengths L_k = |zeta^k(v)|, plain or roof-weighted,
and their distances ||omega L_k||), ``_distance_product`` (prod 1 - c1 d^2),
``_product_depth`` (n* = floor(log_theta R - C2)) and ``_prefactors`` (C',
C2, C'').  ``return_word_power`` is re-exported from ``substitution``.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Sequence

import mpmath as mp
import numpy as np
from mpmath import libmp

from .algebraic import AlgebraicInteger, _mpf_to_fraction, _RND, _root_statuses
from .errors import (
    NotFound,
    NotMeanZero,
    NotSquarefree,
    RadiusTooLarge,
)
from .riesz import (
    DEFAULT_PRECISION_BITS,
    _twisted_row,
    as_exact,
    shifted_product,
)
from .substitution import (
    Substitution,
    Word,
    _extended_return_word,
    _first_image_without,
    abelianization,
    as_word,
    char_poly,
    fixed_point_prefix,
    lengths_at,
    perron_data,
    prefix_suffix_decomposition,
    return_word_power,
    substitution_matrix,
    tiling_lengths_at,
)

# pi^2 rounded up in the last place, so Fejer bounds stay upper bounds
PI_SQUARED_UPPER = 9.86960440108936


def _dist_to_int(x: Fraction) -> Fraction:
    """Exact distance from a rational to the nearest integer."""
    f = x - (x.numerator // x.denominator)
    return min(f, 1 - f)


def birkhoff_twisted(
    zeta: Substitution,
    f_coeffs: Sequence[complex],
    x_prefix: str | Sequence[int],
    N: int | None = None,
    omega=0,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> "mp.mpc":
    """Twisted Birkhoff sum over a legal word, via hierarchical blocks.

    The word is decomposed against the supertile hierarchy; each block is a
    piece of ``riesz._twisted_row`` at the exact length before it, so the
    result equals sum_n e^(-2 pi i omega n) d(x_n).  The coefficients (ints,
    floats, Fractions, mpfs or complex numbers) are dotted with the integer
    row exactly, and the sum is rounded once to ``precision_bits``.  Raises
    ``NotInLanguage`` when the word cannot be located in the language."""
    if len(f_coeffs) != zeta.m:
        raise ValueError(f"need {zeta.m} coefficients, got {len(f_coeffs)}")
    word = as_word(x_prefix)
    if N is not None:
        if not 1 <= N <= len(word):
            raise ValueError("N must be in [1, len(x_prefix)]")
        word = word[:N]
    dec = prefix_suffix_decomposition(zeta, word)
    blocks = [(dec.prefixes[j], j) for j in range(dec.n + 1)]
    blocks += [(dec.suffixes[j], j) for j in range(dec.n, -1, -1)]
    lens = (sum(lengths_at(zeta, j)[c - 1] for c in w) for w, j in blocks)
    pieces = [(w, j, t) for (w, j), t in zip(blocks, accumulate(lens, initial=0))]
    row = _twisted_row(zeta, pieces, as_exact(omega), None, precision_bits)
    d = [(as_exact(z.real), as_exact(z.imag)) for z in f_coeffs]
    re = sum(dr * x - di * y for (dr, di), (x, y) in zip(d, row))
    im = sum(dr * y + di * x for (dr, di), (x, y) in zip(d, row))
    return mp.make_mpc(tuple(
        libmp.from_rational(v.numerator, v.denominator << precision_bits,
                            precision_bits, libmp.round_nearest)
        for v in (re, im)
    ))


@dataclass(frozen=True)
class GEstimate:
    """Empirical mean and sup of N^(-1) |S_N^x|^2 over sampled windows."""

    omega: Fraction
    N: int
    mean: float
    sup: float
    samples: tuple[float, ...]
    window_count: int
    jitter_seed: int | None


def g_estimate(
    zeta: Substitution,
    f_coeffs: Sequence[complex],
    omega,
    N: int,
    sample_count: int = 64,
    jitter_seed: int | None = None,
) -> GEstimate:
    """Estimate of the N-averaged squared twisted sum from orbit windows.

    Windows are disjoint length-N segments of the canonical fixed-point
    expansion (unique ergodicity makes window averages converge uniformly);
    with ``jitter_seed`` set, each window start is shifted by a seeded
    random offset in [0, N)."""
    if N < 1:
        raise ValueError("N must be at least 1")
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if len(f_coeffs) != zeta.m:
        raise ValueError(f"need {zeta.m} coefficients, got {len(f_coeffs)}")
    om = as_exact(omega)
    need = sample_count * N + (N if jitter_seed is not None else 0)
    text = fixed_point_prefix(zeta, need)
    if jitter_seed is None:
        offsets = [i * N for i in range(sample_count)]
    else:
        rng = random.Random(jitter_seed)
        offsets = [i * N + rng.randrange(N) for i in range(sample_count)]
    phases = [
        cmath.exp(-2j * math.pi * float((om * n) % 1)) for n in range(N)
    ]
    d = [complex(x) for x in f_coeffs]
    samples = []
    for off in offsets:
        s = 0j
        for n in range(N):
            s += phases[n] * d[text[off + n] - 1]
        samples.append(abs(s) ** 2 / N)
    return GEstimate(
        omega=om,
        N=N,
        mean=sum(samples) / sample_count,
        sup=max(samples),
        samples=tuple(samples),
        window_count=sample_count,
        jitter_seed=jitter_seed,
    )


def fejer_window(r) -> int:
    """The averaging depth N = floor(1/(2r)) attached to a ball radius."""
    rr = as_exact(r)
    if rr <= 0:
        raise ValueError("radius must be positive")
    if rr > Fraction(1, 2):
        raise RadiusTooLarge(f"radius {rr} exceeds 1/2")
    return int(Fraction(1) / (2 * rr))


@dataclass(frozen=True)
class FejerBallBound:
    """Ball bound pi^2/(4N) * G for the spectral measure at radius 1/(2N).

    ``vacuous`` marks bounds at or above the total mass argument (default 1),
    which carry no information."""

    value: float
    N: int
    G_value: float
    vacuous: bool


def fejer_ball_bound(G_value, N: int, total_mass: float = 1.0) -> FejerBallBound:
    """Kernel-positivity bound for a ball of radius 1/(2N)."""
    if N < 1:
        raise ValueError("N must be at least 1")
    g = float(G_value)
    if g < 0:
        raise ValueError("G must be nonnegative")
    value = PI_SQUARED_UPPER / (4 * N) * g
    return FejerBallBound(
        value=value, N=N, G_value=g, vacuous=value >= total_mass
    )


# ---------------------------------------------------------------------------
# return-word product bounds


@dataclass(frozen=True)
class DiophConstants:
    """Constants of the return-word product bound.

    ``c1`` multiplies the squared distances; it is the minimum of the exact
    per-level values x_c / (2 m R max_j x_j) with x = (S^t)^k 1 over
    k <= k_max, capped at (theta-1)/(theta+1).  That finite minimum
    certifies product bounds up to depth k_max + 1; ``c3_limit`` (the
    margin-shaved eigenvector limit of the same quantity) and
    ``tail_certified`` report how settled the level values already are.
    ``Cprime = c_upper/c_lower`` comes from two-sided Perron-Frobenius
    bounds on |zeta^n(b)| / theta^n over the same range; ``C2`` and ``Cpp``
    are the depth offset and the prefactor of the uniform-in-x sum bound.
    All rational fields are outward-rounded so the bounds they produce
    remain true upper bounds."""

    c1: Fraction
    Cprime: Fraction
    C2: float
    Cpp: Fraction
    v: Word
    c: int
    theta: float
    cap: Fraction
    c3_values: tuple[Fraction, ...]
    c3_limit: Fraction
    c_lower: Fraction
    c_upper: Fraction
    k_max: int
    tail_certified: bool


def dioph_constants(zeta: Substitution, v, k_max: int = 30) -> DiophConstants:
    """Certified constants for the return-word product bound.

    Requires the extended return word to occur in every letter image (pass
    to a power of the substitution first if needed; see
    ``return_word_power``)."""
    vc = _extended_return_word(zeta, v)
    word, c = vc[:-1], vc[0]
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    missing = _first_image_without(zeta.images, vc)
    if missing is not None:
        raise NotFound(
            f"the extended return word must occur inside every letter "
            f"image; it is missing from the image of {missing} — replace the "
            f"substitution by a suitable power first"
        )
    m = zeta.m
    R = max(len(im) for im in zeta.images)  # max row sum of S^t

    # |zeta^n(b)| for n <= k_max: the c3 ratios and the length comparisons
    levels = [lengths_at(zeta, n) for n in range(k_max + 1)]
    c3_values = [Fraction(x[c - 1], 2 * m * R * max(x)) for x in levels]

    pd = perron_data(substitution_matrix(zeta), precision_bits=96)
    # l_c / (2 m R max l) at 160 bits
    limit = libmp.mpf_div(
        pd.l_vec[c - 1]._mpf_,
        libmp.mpf_mul_int(max(pd.l_vec)._mpf_, 2 * m * R, 160, _RND), 160, _RND,
    )
    limit_frac = _mpf_to_fraction(mp.make_mpf(limit))
    # shave a margin off the eigenvector-based limit: the eigenvector is
    # residual-certified, not interval-certified
    c3_limit = limit_frac * (1 - Fraction(1, 2**20))

    lo, hi = pd.theta_interval
    cap = (lo - 1) / (hi + 1)

    c1 = min(min(c3_values), cap)

    # two-sided bounds for |zeta^n(b)| / theta^n over the same range
    c_lower = None
    c_upper = None
    rmin_levels = []
    rmax_levels = []
    for n, lens in enumerate(levels):
        below = min(Fraction(length) / hi**n for length in lens)
        above = max(Fraction(length) / lo**n for length in lens)
        rmin_levels.append(below)
        rmax_levels.append(above)
        c_lower = below if c_lower is None else min(c_lower, below)
        c_upper = above if c_upper is None else max(c_upper, above)

    def _settled(seq: Sequence[Fraction]) -> bool:
        diffs = [abs(b - a) for a, b in zip(seq, seq[1:])]
        tail = diffs[-min(5, len(diffs)) :]
        return all(b <= a for a, b in zip(tail, tail[1:]))

    c3_deltas = [abs(val - limit_frac) for val in c3_values]
    tail = c3_deltas[-min(6, len(c3_deltas)) :]
    tail_certified = (
        all(b <= a for a, b in zip(tail, tail[1:]))
        and _settled(rmin_levels)
        and _settled(rmax_levels)
    )

    Cprime, C2, Cpp = _prefactors(c_lower, c_upper, lo, hi, R)

    return DiophConstants(
        c1=c1,
        Cprime=Cprime,
        C2=C2,
        Cpp=Cpp,
        v=word,
        c=c,
        theta=float(pd.theta),
        cap=cap,
        c3_values=tuple(c3_values),
        c3_limit=c3_limit,
        c_lower=c_lower,
        c_upper=c_upper,
        k_max=k_max,
        tail_certified=tail_certified,
    )


def _prefactors(
    c_lower: Fraction, c_upper: Fraction, lo: Fraction, hi: Fraction, L: int
) -> tuple[Fraction, float, Fraction]:
    """``(Cprime, C2, Cpp)`` from the bounds c_lower <= |zeta^n(b)| /
    theta^n <= c_upper, theta in [lo, hi] and the longest image length L."""
    Cprime = c_upper / c_lower
    C2 = math.log(float(2 * c_upper)) / math.log(float(lo)) + 1
    Cpp = 4 * L * c_upper * hi * Cprime / (c_lower * (lo - 1))
    return Cprime, C2, Cpp


def _product_depth(R, theta: float, C2: float) -> int:
    """The product depth n* = floor(log_theta R - C2) at horizon R, biased
    down: dropping a factor only weakens the bound, keeping one too many
    could falsify it."""
    return math.floor(math.log(float(R)) / math.log(theta) - C2 - 1e-9)


def _level_distances(
    zeta: Substitution, v: Word, omega: Fraction, n: int, roof: Sequence | None = None
) -> tuple[list, list[Fraction]]:
    """The lengths L_k = |zeta^k(v)| for k < n (integers, or exact tiling
    lengths with a roof) and their exact distances ||omega L_k||."""
    ab = abelianization(v, zeta.m)
    rf = None if roof is None else tuple(as_exact(s) for s in roof)
    lens = []
    for k in range(n):
        level = lengths_at(zeta, k) if rf is None else tiling_lengths_at(zeta, k, rf)
        lens.append(sum(ab[i] * level[i] for i in range(zeta.m)))
    return lens, [_dist_to_int(omega * L) for L in lens]


def _distance_product(
    c1: Fraction, distances: Sequence[Fraction]
) -> tuple[tuple[Fraction, ...], Fraction]:
    """The factors 1 - c1 d^2 over the distances and their exact product."""
    factors = tuple(1 - c1 * d * d for d in distances)
    return factors, math.prod(factors, start=Fraction(1))


@dataclass(frozen=True)
class DiophProduct:
    """The product bound prod_k (1 - c1 ||omega |zeta^k(v)||^2) at depth n.

    ``per_letter[b-1]`` is the certified upper bound Cprime * |zeta^n(b)| *
    product for the twisted sums of the n-fold image of b."""

    omega: Fraction
    n: int
    lengths: tuple
    distances: tuple[Fraction, ...]
    factors: tuple[Fraction, ...]
    product: Fraction
    per_letter: tuple[Fraction, ...]
    roof: tuple | None


def dioph_product_bound(
    zeta: Substitution,
    v,
    omega,
    n: int,
    consts: DiophConstants,
    roof: Sequence | None = None,
) -> DiophProduct:
    """Exact-rational evaluation of the return-word product bound, from
    ``_level_distances`` and ``_distance_product``."""
    word = as_word(v)
    if word != consts.v:
        raise ValueError("the return word must match the constants")
    if n < 0:
        raise ValueError("n must be nonnegative")
    om = as_exact(omega)
    rf = None if roof is None else tuple(as_exact(s) for s in roof)
    lens, distances = _level_distances(zeta, word, om, n, rf)
    factors, product = _distance_product(consts.c1, distances)
    # the counting side is always the integer tile count: the matrix
    # recursion bounds cardinalities, the roof only enters the phases
    level_n = lengths_at(zeta, n)
    per_letter = tuple(consts.Cprime * Fraction(L) * product for L in level_n)
    return DiophProduct(
        omega=om,
        n=n,
        lengths=tuple(lens),
        distances=tuple(distances),
        factors=factors,
        product=product,
        per_letter=per_letter,
        roof=rf,
    )


def birkhoff_sup_bound(
    zeta: Substitution,
    v,
    omega,
    N: int,
    consts: DiophConstants,
) -> Fraction:
    """Uniform-in-x upper bound Cpp * N * prod(...) for |S_N(1_[a], omega)|.

    The product runs over the levels k <= n* of ``_product_depth``, n* =
    floor(log_theta N - C2) conservatively rounded down (an earlier cutoff
    only weakens the bound, never falsifies it); it equals
    ``dioph_product_bound(..., n* + 1).product``."""
    if N < 1:
        raise ValueError("N must be at least 1")
    n_star = _product_depth(N, consts.theta, consts.C2)
    _, dists = _level_distances(zeta, consts.v, as_exact(omega), max(0, n_star + 1))
    return consts.Cpp * N * _distance_product(consts.c1, dists)[1]


@dataclass(frozen=True)
class SpectralBound:
    """Certified ball bound produced through the kernel/product chain."""

    omega: Fraction
    r: Fraction
    upper: float
    constants: DiophConstants
    exponent: float | None


def spectral_ball_bound(
    zeta: Substitution,
    omega,
    r,
    consts: DiophConstants,
    exponent: float | None = None,
) -> SpectralBound:
    """Upper bound for sigma_a(B(omega, r)) via the uniform sum bound.

    Chains the kernel inequality with the certified product: the measure of
    the radius-r ball is at most pi^2/4 times (Cpp * product)^2 at depth
    matched to N = floor(1/(2r))."""
    om = as_exact(omega)
    rr = as_exact(r)
    N = fejer_window(rr)
    sup_bound = birkhoff_sup_bound(zeta, consts.v, om, N, consts)
    # sigma(B) <= pi^2/(4N) G_N <= pi^2/(4N) * (sup |S_N|)^2 / N
    val = (sup_bound / N) ** 2
    upper = PI_SQUARED_UPPER / 4 * float(val)
    return SpectralBound(
        omega=om, r=rr, upper=upper, constants=consts, exponent=exponent
    )


def modulus_ball_bound(omega, r, C, beta, N0: int = 1) -> float:
    """Ball bound (pi^2 C / 4) * (3r)^beta from a power-modulus premise.

    Premise: the N-averaged squared sums obey G_N <= C N^(1-beta) for all
    N >= N0.  The kernel inequality then transfers the modulus r^beta to the
    measure of every radius-r ball with r <= 1/(2 N0); the output is
    monotone increasing in r."""
    rr = as_exact(r)
    if rr <= 0:
        raise ValueError("radius must be positive")
    if N0 < 1:
        raise ValueError("N0 must be at least 1")
    if rr > Fraction(1, 2 * N0):
        raise RadiusTooLarge(f"radius {rr} exceeds 1/(2 N0) = 1/{2 * N0}")
    b = float(beta)
    if b < 0:
        raise ValueError("beta must be nonnegative")
    cc = float(C)
    if cc < 0:
        raise ValueError("C must be nonnegative")
    return PI_SQUARED_UPPER * cc / 4 * float(3 * rr) ** b


# ---------------------------------------------------------------------------
# Diophantine frequency profiles and the Holder exponent


@dataclass(frozen=True)
class GammaProfile:
    """Frequency profile of levels whose return-word length is delta-far
    from integers: frequencies[n-1] = #{k < n : ||omega |zeta^k(v)|| >= delta}/n.

    ``running_liminf`` holds suffix minima; ``liminf_estimate`` is the
    suffix minimum from the midpoint on (an empirical stand-in for the
    liminf).  Membership verdicts at a level epsilon are empirical only."""

    omega: Fraction
    delta: Fraction
    n_max: int
    distances: tuple[float, ...]
    counts: tuple[int, ...]
    frequencies: tuple[float, ...]
    running_liminf: tuple[float, ...]
    liminf_estimate: float
    eventually_zero: bool

    def empirical_member(self, epsilon: float) -> bool:
        return self.liminf_estimate > epsilon


def gamma_frequency(
    zeta: Substitution,
    v,
    omega,
    delta,
    n_max: int,
    roof: Sequence | None = None,
) -> GammaProfile:
    """Profile of how often ||omega |zeta^k(v)|| clears the threshold delta."""
    word = as_word(v)
    om = as_exact(omega)
    dd = as_exact(delta)
    if not 0 < dd <= Fraction(1, 2):
        raise ValueError("delta must lie in (0, 1/2]")
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    _, dists = _level_distances(zeta, word, om, n_max, roof)
    counts = []
    running = 0
    for d in dists:
        if d >= dd:
            running += 1
        counts.append(running)
    frequencies = [counts[n - 1] / n for n in range(1, n_max + 1)]
    running_liminf = list(frequencies)
    for i in range(n_max - 2, -1, -1):
        running_liminf[i] = min(running_liminf[i], running_liminf[i + 1])
    mid = n_max // 2
    second_half = counts[-1] - (counts[mid - 1] if mid >= 1 else 0)
    return GammaProfile(
        omega=om,
        delta=dd,
        n_max=n_max,
        distances=tuple(float(d) for d in dists),
        counts=tuple(counts),
        frequencies=tuple(frequencies),
        running_liminf=tuple(running_liminf),
        liminf_estimate=running_liminf[mid] if n_max > 1 else frequencies[0],
        eventually_zero=second_half == 0,
    )


def holder_exponent(theta, c1, delta, epsilon) -> float:
    """The exponent -2 epsilon log_theta(1 - c1 delta^2).

    Zero output signals a degenerate input (epsilon = 0 or c1 delta^2 = 0):
    the chain then gives no modulus-of-continuity improvement."""
    th = float(theta)
    c = float(c1)
    dl = float(delta)
    ep = float(epsilon)
    if th <= 1:
        raise ValueError("theta must exceed 1")
    if not 0 < c < 1:
        raise ValueError("c1 must lie in (0, 1)")
    if not 0 < dl <= 0.5:
        raise ValueError("delta must lie in (0, 1/2]")
    if ep < 0:
        raise ValueError("epsilon must be nonnegative")
    return -2 * ep * math.log1p(-c * dl * dl) / math.log(th)


# ---------------------------------------------------------------------------
# eigenvalue criterion


@dataclass(frozen=True)
class EigenvalueReport:
    """Partial sums of ||omega |zeta^k(v)||^2 with an empirical verdict.

    The verdict is a tail heuristic — "Converging" when the tail terms
    vanish exactly or their mean drops below 10^-8, "Diverging" when the
    tail mean stays above 10^-4 — and never claims a proof."""

    omega: Fraction
    n_max: int
    terms: tuple[float, ...]
    partial_sums: tuple[float, ...]
    verdict: str
    exact_zero_tail: bool


def eigenvalue_test(
    zeta: Substitution,
    v,
    omega,
    n_max: int,
    roof: Sequence | None = None,
) -> EigenvalueReport:
    """Square-summability scan of the return-word length distances."""
    word = as_word(v)
    om = as_exact(omega)
    if n_max < 4:
        raise ValueError("n_max must be at least 4")
    _, dists = _level_distances(zeta, word, om, n_max, roof)
    terms = [d * d for d in dists]
    partial = []
    acc = Fraction(0)
    for t in terms:
        acc += t
        partial.append(float(acc))
    tail_len = max(5, n_max // 4)
    tail = terms[-tail_len:]
    exact_zero_tail = all(t == 0 for t in tail)
    tail_mean = float(sum(tail)) / tail_len
    if exact_zero_tail:
        verdict = "Converging"
    elif tail_mean >= 1e-4:
        verdict = "Diverging"
    elif tail_mean <= 1e-8:
        verdict = "Converging"
    else:
        verdict = "Inconclusive"
    return EigenvalueReport(
        omega=om,
        n_max=n_max,
        terms=tuple(float(t) for t in terms),
        partial_sums=tuple(partial),
        verdict=verdict,
        exact_zero_tail=exact_zero_tail,
    )


# ---------------------------------------------------------------------------
# local dimension from product growth


@dataclass(frozen=True)
class LocalDimensionReport:
    """Growth rate of transfer-matrix products and the dimension bound.

    ``alpha`` estimates limsup ||product_n||^(1/n) as the maximum over the
    last quarter of depths; ``lower_bound`` = clip(2 - 2 log_theta alpha)
    bounds the lower local dimension of the diagonal spectral measures.  At
    integer omega the product is the n-th power of the count matrix, the
    rate equals theta exactly, and the bound is exactly 0.  ``norms`` are
    the product norms at depths 1 .. n_max and ``norm_errors`` bound their
    distance from the norms of the exact products."""

    omega: Fraction
    n_max: int
    alpha: float
    lower_bound: float
    norms: tuple[float, ...]
    norm_errors: tuple[float, ...]
    tail_start: int
    exact_peak: bool


def dimension_bound_from_alpha(alpha, theta) -> float:
    """The lower local-dimension value 2 - 2 log_theta(alpha), clipped to
    [0, 2]: alpha = theta gives 0, alpha = sqrt(theta) gives 1."""
    a = float(alpha)
    th = float(theta)
    if a <= 0:
        raise ValueError("alpha must be positive")
    if th <= 1:
        raise ValueError("theta must exceed 1")
    return min(2.0, max(0.0, 2 - 2 * math.log(a) / math.log(th)))


@lru_cache(maxsize=256)
def _perron_theta(zeta: Substitution) -> float:
    """Dominant count-matrix eigenvalue, memoised per substitution: every
    row of a frequency grid needs it and ``perron_data`` re-certifies it."""
    return float(perron_data(substitution_matrix(zeta)).theta)


def local_dimension_bound(
    zeta: Substitution,
    omega,
    n_max: int,
    roof: Sequence | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> LocalDimensionReport:
    """Lower local-dimension bound from the transfer-product growth rate."""
    if n_max < 10:
        raise ValueError("n_max must be at least 10")
    om = as_exact(omega)
    theta = _perron_theta(zeta)
    if om.denominator == 1:
        # integer twist: the product is exactly the n-th count-matrix power
        return LocalDimensionReport(
            omega=om,
            n_max=n_max,
            alpha=theta,
            lower_bound=0.0,
            norms=(),
            norm_errors=(),
            tail_start=0,
            exact_peak=True,
        )
    prod = shifted_product(zeta, 0, n_max, om, roof, precision_bits)
    norms = prod.per_step_norms
    tail_start = max(1, (3 * n_max) // 4)
    alpha = max(
        norms[n - 1] ** (1.0 / n) for n in range(tail_start, n_max + 1)
    )
    bound = dimension_bound_from_alpha(alpha, theta)
    return LocalDimensionReport(
        omega=om,
        n_max=n_max,
        alpha=alpha,
        lower_bound=bound,
        norms=norms,
        norm_errors=prod.norm_errors,
        tail_start=tail_start,
        exact_peak=False,
    )


# ---------------------------------------------------------------------------
# untwisted mean-zero sums


@dataclass(frozen=True)
class ZeroExponentReport:
    """Growth exponent of untwisted mean-zero Birkhoff sums on dyadic depths.

    ``regime`` is "power" when the second count-matrix eigenvalue has
    modulus > 1 (predicted exponent log_theta |theta_2|), "log" on the unit
    circle (bounded by powers of log N; ``log_fit_exponent`` then holds the
    slope of log |S_N| against log log N), "bounded" inside; ``certified``
    records whether the eigenvalue placement came from certified root
    enclosures or a floating fallback."""

    fitted_exponent: float
    predicted_exponent: float
    regime: str
    dyadic_N: tuple[int, ...]
    values: tuple[float, ...]
    theta: float
    theta2_modulus: float
    certified: bool
    all_zero: bool
    log_fit_exponent: float | None


def zero_exponent_scan(
    zeta: Substitution,
    f_coeffs: Sequence[complex],
    N_max: int,
) -> ZeroExponentReport:
    """Fit |S_N(f, 0)| against N on dyadic depths and compare with the
    second-eigenvalue prediction.

    Raises ``NotMeanZero`` unless the coefficient average against the
    letter frequencies vanishes (within the eigenvector residual)."""
    if len(f_coeffs) != zeta.m:
        raise ValueError(f"need {zeta.m} coefficients, got {len(f_coeffs)}")
    if N_max < 8:
        raise ValueError("N_max must be at least 8")
    d = [complex(x) for x in f_coeffs]
    S = substitution_matrix(zeta)
    pd = perron_data(S, precision_bits=96)
    mean = sum(dc * complex(float(r)) for dc, r in zip(d, pd.r_vec))
    maxd = max((abs(x) for x in d), default=0.0)
    tol = 1e-9 * (1 + maxd) + zeta.m * float(pd.residual) * maxd
    if abs(mean) > tol:
        raise NotMeanZero(
            f"coefficient average against letter frequencies is {mean}"
        )

    theta = float(pd.theta)
    # placement of the second count-matrix eigenvalue, certified when possible
    poly = tuple(reversed(char_poly(S)))
    certified = True
    try:
        ai = AlgebraicInteger.from_poly(poly, 128)
        statuses, disks = _root_statuses(ai)
        others = [i for i in range(len(disks)) if i != ai.root_index]

        def mid(i):  # midpoint of the modulus enclosure, summed at 53 bits
            lo, hi = (x._mpf_ for x in disks[i].modulus_interval())
            total = libmp.mpf_add(libmp.mpf_pos(lo, 53, _RND), hi, 53, _RND)
            return libmp.to_float(libmp.mpf_shift(total, -1), rnd=_RND)

        out = [i for i in others if statuses[i] == "out"]
        circle = [i for i in others if statuses[i] == "circle"]
        if out:
            status = "out"
            mod2 = max(mid(i) for i in out)
        elif circle:
            status = "circle"
            mod2 = 1.0
        else:
            status = "in"
            mod2 = max((mid(i) for i in others), default=0.0)
    except NotSquarefree:
        roots = sorted(np.roots([float(c) for c in poly]), key=abs)
        mod2 = abs(roots[-2]) if len(roots) >= 2 else 0.0
        certified = False
        # repeated roots perturb like a fractional power of the working
        # epsilon, so the uncertified comparison needs a wide margin
        if mod2 > 1 + 1e-4:
            status = "out"
        elif mod2 < 1 - 1e-4:
            status = "in"
        else:
            status = "circle"
    if status == "out":
        regime = "power"
        predicted = math.log(mod2) / math.log(theta)
    elif status == "circle":
        regime = "log"
        predicted = 0.0
    else:
        regime = "bounded"
        predicted = 0.0

    text = fixed_point_prefix(zeta, N_max)
    dyadic = []
    values = []
    acc = 0j
    next_pow = 1
    for idx, letter in enumerate(text, start=1):
        acc += d[letter - 1]
        if idx == next_pow:
            dyadic.append(idx)
            values.append(abs(acc))
            next_pow *= 2

    all_zero = all(v == 0 for v in values)

    def _slope(pts: list[tuple[float, float]]) -> float:
        if len(pts) < 2:
            return 0.0
        xb = sum(p[0] for p in pts) / len(pts)
        yb = sum(p[1] for p in pts) / len(pts)
        den = sum((p[0] - xb) ** 2 for p in pts)
        return sum((p[0] - xb) * (p[1] - yb) for p in pts) / den if den else 0.0

    tail = [
        (Nv, val)
        for Nv, val in zip(dyadic, values)
        if Nv * 8 >= N_max and Nv > 1 and val > 0
    ]
    fitted = 0.0 if all_zero else _slope(
        [(math.log(Nv), math.log(val)) for Nv, val in tail]
    )
    log_fit = None
    if regime == "log" and not all_zero:
        log_fit = _slope(
            [(math.log(math.log(Nv)), math.log(val)) for Nv, val in tail]
        )
    return ZeroExponentReport(
        fitted_exponent=fitted,
        predicted_exponent=predicted,
        regime=regime,
        dyadic_N=tuple(dyadic),
        values=tuple(values),
        theta=theta,
        theta2_modulus=mod2,
        certified=certified,
        all_zero=all_zero,
        log_fit_exponent=log_fit,
    )
