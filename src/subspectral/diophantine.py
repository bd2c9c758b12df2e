"""Exact Diophantine sequences attached to an algebraic integer theta > 1.

Core object: the sequence t*theta^k split into nearest integers K_k and
signed fractional parts eps_k in [-1/2, 1/2).  For t in Z[theta] (or
rational multiples of such elements) the split is exact: coordinates evolve
by the companion-matrix action, and each eps_k is represented exactly as an
element of (1/q) Z[theta], with a certified rational approximation alongside.

On top of the sequences: the window-escape structure (when theta has a
conjugate outside the unit circle, every window [k, k*beta - 1] contains an
index with fractional part at least delta1), the product
exp(-sum ||t theta^k||^2) with its power-law decay report, and the
Erdos-Kahane apparatus: Vandermonde constants (rho, L), one-step integer
prediction, and frequency counting for ||omega * sum a_j theta_j^n||.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import mpmath as mp
from mpmath import libmp

from .algebraic import (
    PRECISION_CAP_BITS,
    AlgebraicInteger,
    ZThetaElement,
    prop_alg_constants,
    zt_mul_theta,
    zt_value_interval,
    _context,
    _mpf_ratio,
    _mpf_to_fraction,
    _poly_degree,
    _public,
    _RND,
    _companion_row,
    _scaled_bracket,
    _times_theta,
    _zt_scaled,
)
from .errors import (
    HalfIntegerAmbiguity,
    PrecisionExhausted,
    RepeatedEigenvalue,
    WrongClass,
    ZeroEigenvalue,
)

MAX_SEQUENCE_LENGTH = 10**5


def companion_matrix(poly_or_ai) -> tuple[tuple[int, ...], ...]:
    """Companion matrix with the coefficient row at the bottom: for
    p = x^s - b1 x^(s-1) - ... - bs the last row is (bs, ..., b1) and the
    rows above shift coordinates up by one."""
    poly = poly_or_ai.poly if isinstance(poly_or_ai, AlgebraicInteger) else tuple(
        int(c) for c in poly_or_ai
    )
    s = _poly_degree(poly)
    rows = [
        tuple(1 if j == i + 1 else 0 for j in range(s)) for i in range(s - 1)
    ]
    rows.append(_companion_row(poly))
    return tuple(rows)


# ---------------------------------------------------------------------------
# the split sequence t theta^k = K_k + eps_k


@dataclass(frozen=True)
class PisotLikeSequence:
    """t*theta^k = K[k] + eps_k exactly, for k = 0 .. N-1.

    ``nums[k] / D`` is a certified rational approximation eps[k] of the
    signed fractional part, with |true - eps[k]| <= err; D > 0 is one
    common denominator of all terms (not always the least one).  ``eps``
    and ``eps_num`` are views built on first read: ``eps[k]`` is
    ``nums[k] / D`` as a reduced ``Fraction``, and ``eps_num[k] / denom`` is
    the exact ring element whose real value is the signed fractional part.
    A pickle holds the fields only, whichever views were read.  Memory
    grows quadratically in N: the bit length of D, and so of every
    numerator, grows linearly in N.
    """

    theta: AlgebraicInteger
    t_coords: ZThetaElement
    denom: int
    K: tuple[int, ...]
    nums: tuple[int, ...]
    D: int
    err: Fraction

    def __len__(self) -> int:
        return len(self.K)

    def __getstate__(self) -> dict:
        return {f: self.__dict__[f] for f in self.__dataclass_fields__}

    @cached_property
    def eps(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.D) for n in self.nums)

    @cached_property
    def eps_num(self) -> tuple[ZThetaElement, ...]:
        row = _companion_row(self.theta.poly)
        x = self.t_coords.coords
        out = []
        for k in self.K:
            out.append(ZThetaElement((x[0] - k * self.denom,) + x[1:]))
            x = _times_theta(x, row)
        return tuple(out)


def _normalize_t(ai: AlgebraicInteger, t) -> tuple[ZThetaElement, int]:
    s = ai.degree
    if isinstance(t, ZThetaElement):
        if len(t.coords) != s:
            raise ValueError(f"t must have {s} coordinates")
        return t, 1
    if isinstance(t, int):
        return ZThetaElement.from_int(t, s), 1
    if isinstance(t, mp.mpf):
        t = _mpf_to_fraction(t)
    if isinstance(t, float):
        if not math.isfinite(t):
            raise ValueError("t must be finite")
        t = Fraction(t)
    if isinstance(t, Fraction):
        return (
            ZThetaElement.from_int(t.numerator, s),
            t.denominator,
        )
    raise TypeError(f"cannot interpret {type(t).__name__} as t")


def _certified_split(
    L: int, H: int, qS: int, err: Fraction
) -> tuple[int, int] | None:
    """(k, n) with k the nearest integer (ties up) to the midpoint of
    [L/qS, H/qS] and n / (2 qS) the midpoint minus k, when every point of
    that interval rounds to k and its width is at most 2 err; None
    otherwise.  qS > 0 and L <= H."""
    two_qS = 2 * qS
    if (2 * L + qS) // two_qS != (2 * H + qS) // two_qS:
        return None
    if (H - L) * err.denominator > 2 * err.numerator * qS:
        return None
    k = (L + H + qS) // two_qS
    return k, L + H - k * two_qS


def pisot_sequence(
    ai: AlgebraicInteger,
    t,
    N: int,
    err: Fraction = Fraction(1, 2**40),
) -> PisotLikeSequence:
    """Exact nearest-integer/fractional split of t*theta^k for k < N.

    Ties (value exactly in Z + 1/2) round up, giving eps = -1/2; they can
    only occur when the value is rational, which the exact representation
    detects outright.

    Integer kernel: the coordinates of t*theta^k (t = x0 / q) are walked as
    integer tuples by the companion step, and their largest bit length sets
    the bracket width.  The root bracket of each width is fetched once per
    call and put over one denominator; each term's enclosure of t*theta^k
    is then the integer interval [L, H] / (q S) from the scaled Horner
    scheme of ``algebraic``.  The nearest integer is
    ``(L + H + qS) // (2qS)``; the split is certified when
    ``(2L + qS) // (2qS) == (2H + qS) // (2qS)`` (the whole enclosure rounds
    to one integer) and ``(H - L) * err.denominator <= 2 * err.numerator *
    q * S`` (its width is at most 2 err), and then eps is
    ``(L + H - 2kqS) / (2qS)``, the midpoint minus k.  These are the
    rational tests and values exactly, on integers; a term whose enclosure
    fails either test is retried at twice the width.  A term with rational
    coordinates is split exactly, over q.  There is one denominator 2qS
    per width used, and q divides each, so D is the lcm of these few and
    every numerator is scaled to it once; no ``Fraction`` is built."""
    if not 1 <= N <= MAX_SEQUENCE_LENGTH:
        raise ValueError(f"N must be in [1, {MAX_SEQUENCE_LENGTH}]")
    err = Fraction(err)
    if err <= 0:
        raise ValueError("err must be positive")
    x0, q = _normalize_t(ai, t)
    s = ai.degree

    row = _companion_row(ai.poly)
    x = x0.coords
    coords = [x]
    maxbit = max(map(abs, x)).bit_length()
    for _ in range(N - 1):
        x = _times_theta(x, row)
        coords.append(x)
        bits = max(map(abs, x)).bit_length()
        if bits > maxbit:
            maxbit = bits
    err_bits = max(8, (err.denominator // max(err.numerator, 1)).bit_length())
    width = s * maxbit + q.bit_length() + err_bits + 64

    brackets: dict[int, tuple[int, int, int]] = {}
    K_list: list[int] = []
    nums: list[int] = []
    dens: list[int] = []
    for x in coords:
        if not any(x[1:]):
            # exact rational value x[0]/q: decide with no interval at all
            k = (2 * x[0] + q) // (2 * q)  # round half up
            K_list.append(k)
            nums.append(x[0] - k * q)
            dens.append(q)
            continue
        w = width
        while True:
            bracket = brackets.get(w)
            if bracket is None:
                bracket = brackets[w] = _scaled_bracket(*ai.real_bracket(w))
            L, H, S = _zt_scaled(x, *bracket)
            split = _certified_split(L, H, q * S, err)
            if split is not None:
                K_list.append(split[0])
                nums.append(split[1])
                dens.append(2 * q * S)
                break
            w *= 2
            if w > PRECISION_CAP_BITS:
                # the interval is pinned to a half-integer boundary
                raise HalfIntegerAmbiguity(
                    "value certified arbitrarily close to Z + 1/2"
                )
    D = math.lcm(*set(dens))
    scale = {d: D // d for d in set(dens)}
    return PisotLikeSequence(
        theta=ai,
        t_coords=x0,
        denom=q,
        K=tuple(K_list),
        nums=tuple(n * scale[d] for n, d in zip(nums, dens)),
        D=D,
        err=err,
    )


# ---------------------------------------------------------------------------
# window escape


class WindowVerdict(NamedTuple):
    k: int
    passed: bool
    max_eps: float
    argmax: int


@dataclass(frozen=True)
class WindowEscapeReport:
    k0: int
    k0_empirical: bool
    beta: int
    delta1: Fraction
    verdicts: tuple[WindowVerdict, ...]
    first_violation: int | None
    hypothesis_violated: bool


def _window_maxima(values: Sequence, beta: int, k_max: int) -> list[tuple]:
    """(maximum, first index attaining it) of values[k : k*beta] for
    k = 1 .. k_max, in one pass.

    Both window ends only move right, so a deque of indices whose values do
    not increase from front to back holds every candidate: an index leaves
    at the back when a strictly larger value arrives (equal ones stay, which
    keeps the first maximum in front) and at the front when the window
    passes it."""
    candidates: deque[int] = deque()
    out = []
    right = 1
    for k in range(1, k_max + 1):
        while right < k * beta:
            v = values[right]
            while candidates and values[candidates[-1]] < v:
                candidates.pop()
            candidates.append(right)
            right += 1
        while candidates[0] < k:
            candidates.popleft()
        out.append((values[candidates[0]], candidates[0]))
    return out


def window_escape_check(
    ai: AlgebraicInteger,
    t,
    k0: int | None = None,
    k_max: int = 50,
    diagnostic: bool = False,
    beta_override: int | None = None,
) -> WindowEscapeReport:
    """For each k in [k0, k_max], certify that some index i in
    [k, k*beta - 1] has ||t theta^i|| >= delta1.

    Requires a conjugate outside the unit circle; with ``diagnostic=True``
    other classes are allowed (beta then comes from ``beta_override`` or
    defaults to 2) and the report is flagged.  When ``k0`` is omitted it is
    set empirically: one past the largest failing window in [1, k_max], plus
    a safety margin of 5 (or 1 when every window passes).

    Integer kernel: the |eps| are the sequence's numerators over its common
    denominator D, so the window maxima compare integers, and a verdict
    cross-multiplies the maximum best / D with delta1 +- err.  ``max_eps``
    is the true division ``best / D``, the same float as that of the
    reduced ``Fraction``: both are the correctly rounded value of one
    rational."""
    hypothesis_violated = False
    if beta_override is not None and beta_override < 2:
        raise ValueError("beta must be at least 2")
    try:
        consts = prop_alg_constants(ai)
        beta = beta_override or consts.beta
        delta1 = consts.delta1
    except WrongClass:
        if not diagnostic:
            raise
        hypothesis_violated = True
        beta = beta_override or 2
        H = ai.height
        delta1 = Fraction(1, 1 + ai.degree * H)
    if k_max < 1:
        raise ValueError("k_max must be at least 1")

    need = k_max * beta  # largest scalar index used is k_max*beta - 1
    err = Fraction(1, 2**60)
    while True:
        seq = pisot_sequence(ai, t, need, err=err)
        nums, D = seq.nums, seq.D
        hi, lo = delta1 + err, delta1 - err
        # k -> (passed, or None when pinned at delta1 for this err; the
        # window maximum's numerator over D; the first index attaining it)
        all_verdicts: dict[int, tuple[bool | None, int, int]] = {}
        maxima = _window_maxima([abs(n) for n in nums], beta, k_max)
        for k, (best, arg) in enumerate(maxima, 1):
            if best * hi.denominator >= hi.numerator * D:
                all_verdicts[k] = (True, best, arg)
            elif best * lo.denominator < lo.numerator * D:
                all_verdicts[k] = (False, best, arg)
            else:
                all_verdicts[k] = (None, best, arg)
        if all(v[0] is not None for v in all_verdicts.values()):
            break
        err /= 2**20
        if err < Fraction(1, 2**PRECISION_CAP_BITS):
            raise PrecisionExhausted("window decision pinned at delta1")

    empirical = k0 is None
    if empirical:
        failing = [k for k, v in all_verdicts.items() if v[0] is False]
        k0 = max(failing) + 1 + 5 if failing else 1

    verdicts = []
    first_violation = None
    for k in range(k0, k_max + 1):
        ok, best, arg = all_verdicts[k]
        verdicts.append(WindowVerdict(k, bool(ok), best / D, arg))
        if not ok and first_violation is None:
            first_violation = k
    return WindowEscapeReport(
        k0=k0,
        k0_empirical=empirical,
        beta=beta,
        delta1=delta1,
        verdicts=tuple(verdicts),
        first_violation=first_violation,
        hypothesis_violated=hypothesis_violated,
    )


# ---------------------------------------------------------------------------
# the decaying product


@dataclass(frozen=True)
class ProductReport:
    """exp(-sum_{k<N} ||t theta^k||^2) and its decay against C * N^-alpha.

    ``values[n-1]`` is the partial product at depth n (nonincreasing).  The
    constant is fitted on depths up to N/2 and the bound is then checked on
    the second half, so ``bound_ok`` is a genuine out-of-sample test of the
    power-law decay.  ``t_factor`` is (log(1+t))^(1/log beta) for t >= 1 and
    1 for t in (0, 1); in the latter case the bound only applies once
    N >= branch_min_n."""

    value: "mp.mpf"
    log_value: "mp.mpf"
    N: int
    alpha: "mp.mpf | None"
    beta: int | None
    delta1: Fraction | None
    branch: str
    branch_min_n: int
    t_factor: "mp.mpf"
    fitted_C: "mp.mpf | None"
    fitted_exponent: float
    bound_ok: bool | None
    hypothesis_violated: bool
    values: tuple[float, ...]


def _t_value_interval(ai: AlgebraicInteger, t) -> tuple[Fraction, Fraction]:
    x, q = _normalize_t(ai, t)
    maxbit = max(max(abs(c) for c in x.coords).bit_length(), 1)
    lo, hi = zt_value_interval(x, ai, ai.degree * maxbit + 96)
    return lo / q, hi / q


def _neg_ratio(num: int, odd: int, zeros: int, prec: int) -> tuple:
    """-num / (odd 2^zeros) for num >= 0 and odd odd, at ``prec`` bits as a
    libmp value, rounded as ``_mpf_ratio`` rounds the reduced fraction: the
    reduced numerator to ``prec`` bits, then the quotient (correctly, with a
    sticky bit, by ``mpf_div``).  Rounding the quotient in one step, or
    rounding the unreduced numerator, gives other values.  Only the odd part
    of the gcd is divided out: a power of two changes no binary rounding."""
    g = math.gcd(num, odd)
    den = odd // g
    return libmp.mpf_div(
        libmp.from_int(-(num // g), prec, _RND),
        (0, den, zeros, den.bit_length()),
        prec, _RND,
    )


def prop_alg_product(
    ai: AlgebraicInteger,
    t,
    N: int,
    diagnostic: bool = False,
    err: Fraction = Fraction(1, 2**40),
) -> ProductReport:
    """Value of exp(-sum_{k<N} ||t theta^k||^2) with a decay report.

    Raises ``WrongClass`` unless theta has a conjugate outside the unit
    circle; ``diagnostic=True`` computes the product anyway (for classes
    where the sum may converge and the product stays bounded below) and
    flags the report.

    Integer kernel: the eps are the sequence's numerators over its common
    denominator D, so each partial sum of eps^2 is one integer P over D^2.
    Its negation at 120 bits (``_neg_ratio``) is rounded as the reduced
    ``Fraction`` -P/D^2 was: divide out the odd part of g = gcd(P, D^2),
    round the numerator to 120 bits, then round the quotient; ``mpf_exp``
    of it gives the value at depth n.  Any common denominator gives the
    same value, as only a power of two can be left in the numerator."""
    hypothesis_violated = False
    consts = None
    try:
        consts = prop_alg_constants(ai)
    except WrongClass:
        if not diagnostic:
            raise
        hypothesis_violated = True

    t_lo, t_hi = _t_value_interval(ai, t)
    if t_hi <= 0:
        raise ValueError("t must be positive")

    seq = pisot_sequence(ai, t, N, err=err)
    nums, D = seq.nums, seq.D
    # -(partial sum of eps^2) at 120 bits for every depth, then its exp
    zeros = (D & -D).bit_length() - 1
    odd = (D >> zeros) ** 2
    partial = 0
    exps = []
    for n in nums:
        partial += n * n
        log_value = _neg_ratio(partial, odd, 2 * zeros, 120)
        exps.append(libmp.mpf_exp(log_value, 120, _RND))
    values = tuple(libmp.to_float(x, rnd=_RND) for x in exps)
    value = mp.make_mpf(exps[-1])
    log_value = mp.make_mpf(log_value)

    # branch bookkeeping
    t_factor = libmp.fone
    if t_lo >= 1:
        branch = "t>=1"
        branch_min_n = 1
        t_mid = (t_lo + t_hi) / 2
        if consts is not None:
            # log(1 + t)^(1 / log beta) at 120 bits
            x = libmp.mpf_add(_mpf_ratio(t_mid, 120), libmp.fone, 120, _RND)
            e = libmp.mpf_rdiv_int(
                1, libmp.mpf_log(libmp.from_int(consts.beta), 120, _RND), 120, _RND
            )
            t_factor = libmp.mpf_pow(libmp.mpf_log(x, 120, _RND), e, 120, _RND)
    else:
        branch = "small-t"
        # smallest j >= 1 with t theta^j >= 1, decided exactly
        x, q = _normalize_t(ai, t)
        j = 0
        while True:
            j += 1
            x = zt_mul_theta(x, ai)
            if _certified_cmp_one(ai, x, q) >= 0:
                break
        branch_min_n = 2 * j
    t_factor = mp.make_mpf(t_factor)

    # slope of log(value) vs log(n) over the upper range
    lo_n = max(2, N // 10)
    xs = [math.log(n) for n in range(lo_n, N + 1)]
    ys = [math.log(values[n - 1]) for n in range(lo_n, N + 1)]
    if len(xs) >= 2:
        xbar = sum(xs) / len(xs)
        ybar = sum(ys) / len(ys)
        denom = sum((x - xbar) ** 2 for x in xs)
        slope = (
            sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / denom
            if denom > 0
            else 0.0
        )
    else:
        slope = 0.0

    if consts is None:
        return ProductReport(
            value=value,
            log_value=log_value,
            N=N,
            alpha=None,
            beta=None,
            delta1=None,
            branch=branch,
            branch_min_n=branch_min_n,
            t_factor=t_factor,
            fitted_C=None,
            fitted_exponent=slope,
            bound_ok=None,
            hypothesis_violated=True,
            values=values,
        )

    alpha = consts.alpha
    fa = float(alpha)
    # fit C on the first half, check the bound on the second half
    fit_lo = max(branch_min_n, 2)
    fit_hi = max(fit_lo, N // 2)
    tf = float(t_factor) if float(t_factor) > 0 else 1.0
    C_candidates = [
        values[n - 1] * n**fa / tf
        for n in range(fit_lo, fit_hi + 1)
    ]
    if not C_candidates:
        C_candidates = [values[-1] * N**fa / tf]
    fitted_C = max(C_candidates)
    bound_ok = all(
        values[n - 1] <= fitted_C * tf * n**-fa * (1 + 1e-9)
        for n in range(fit_hi + 1, N + 1)
    )
    return ProductReport(
        value=value,
        log_value=log_value,
        N=N,
        alpha=mp.make_mpf(libmp.mpf_pos(alpha._mpf_, 120, _RND)),
        beta=consts.beta,
        delta1=consts.delta1,
        branch=branch,
        branch_min_n=branch_min_n,
        t_factor=t_factor,
        fitted_C=mp.make_mpf(libmp.from_float(fitted_C)),
        fitted_exponent=slope,
        bound_ok=bound_ok,
        hypothesis_violated=hypothesis_violated,
        values=values,
    )


def _certified_cmp_one(ai, x, q) -> int:
    """Sign of value(x)/q - 1, certified (-1, 0, +1)."""
    if all(c == 0 for c in x.coords[1:]):
        v = Fraction(x.coords[0], q)
        return (v > 1) - (v < 1)
    maxbit = max(max(abs(c) for c in x.coords).bit_length(), 1)
    bits = ai.degree * maxbit + 80
    while bits <= PRECISION_CAP_BITS:
        lo, hi = zt_value_interval(x, ai, bits)
        lo, hi = lo / q, hi / q
        if lo > 1:
            return 1
        if hi < 1:
            return -1
        bits *= 2
    raise PrecisionExhausted("comparison against 1 undecided")


# ---------------------------------------------------------------------------
# Erdos-Kahane apparatus


class EKConstants(NamedTuple):
    rho: "mp.mpf"
    L: int
    L_exact: "mp.mpf"
    theta_list: tuple["mp.mpc", ...]
    vandermonde_norm: "mp.mpf"
    vandermonde_inv_norm: "mp.mpf"
    theta1: "mp.mpf"


def ek_constants(theta_list: Sequence, precision_bits: int = 160) -> EKConstants:
    """Vandermonde constants for a list of distinct nonzero eigenvalues.

    Theta has entry (i, j) = theta_j^i for i = 0..m-1; rho and L are
    1/2 * (1 + theta1*norm*inv_norm)^-1 and ceil(2 + theta1*norm*inv_norm),
    with theta1 the largest modulus.  Computed at ``precision_bits`` in a
    private context."""
    m = len(theta_list)
    if m == 0:
        raise ValueError("need at least one eigenvalue")
    ctx = _context(precision_bits)
    zs = tuple(ctx.mpc(z) for z in theta_list)
    for i in range(m):
        if zs[i] == 0:
            raise ZeroEigenvalue("zero eigenvalue not allowed")
        for j in range(i + 1, m):
            if zs[i] == zs[j]:
                raise RepeatedEigenvalue(f"eigenvalue {zs[i]} repeated")
    V = _vandermonde(ctx, zs)
    Vinv = V**-1
    norm = max(
        ctx.fsum(abs(V[i, j]) for j in range(m)) for i in range(m)
    )
    inv_norm = max(
        ctx.fsum(abs(Vinv[i, j]) for j in range(m)) for i in range(m)
    )
    theta1 = max(abs(z) for z in zs)
    L_exact = 2 + theta1 * norm * inv_norm
    L = int(ctx.ceil(L_exact - ctx.mpf(2) ** (-precision_bits // 2)))
    rho = 1 / (2 * (1 + theta1 * norm * inv_norm))
    return EKConstants(
        rho=_public(rho),
        L=L,
        L_exact=_public(L_exact),
        theta_list=tuple(_public(z) for z in zs),
        vandermonde_norm=_public(norm),
        vandermonde_inv_norm=_public(inv_norm),
        theta1=_public(theta1),
    )


def _vandermonde(ctx, zs) -> "mp.matrix":
    """The matrix (zs[j]^i) in ``ctx``."""
    m = len(zs)
    V = ctx.matrix(m, m)
    for i in range(m):
        for j in range(m):
            V[i, j] = zs[j] ** i
    return V


def ek_dimension_bound(L: int, m: int, k: int, theta_modulus) -> float:
    """Closed-form exponent log(2 L^(m+1) k) / (k log |theta|)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    tm = float(theta_modulus)
    if tm <= 1:
        raise ValueError("modulus must exceed 1")
    return math.log(2 * L ** (m + 1) * k) / (k * math.log(tm))


class EKPrediction(NamedTuple):
    predicted: float
    best: int
    candidates: tuple[int, ...]
    unique: bool


@lru_cache(maxsize=64)
def _ek_step_data(theta_list: tuple, precision_bits: int) -> tuple:
    """(context, rows of the inverse Vandermonde matrix, theta_j^m) for
    ``ek_step_predict``, all at ``precision_bits``.  The context is private
    to this entry and never changes precision after the inversion, so
    concurrent predictions may share it; the rows give the same dot
    products as the matrix product did."""
    ctx = _context(precision_bits)
    zs = [ctx.convert(z) for z in theta_list]
    m = len(zs)
    Vinv = _vandermonde(ctx, zs) ** -1
    inverse = tuple(tuple(Vinv[i, j] for j in range(m)) for i in range(m))
    return ctx, inverse, tuple(z**m for z in zs)


def ek_step_predict(
    K_window: Sequence[int],
    consts: EKConstants,
    precision_bits: int = 160,
) -> EKPrediction:
    """Candidates for the next nearest integer from m consecutive ones.

    The window evolves (in exact real terms) by conjugation of the diagonal
    eigenvalue action with the Vandermonde matrix; the next value is the last
    component of that image.  All integers within half of (L_exact - 1) of
    the prediction are candidates (at most L of them); ``unique`` is set
    when, under the hypothesis that every fractional part in play is below
    rho, the next integer is forced to be ``best``."""
    m = len(consts.theta_list)
    if len(K_window) != m:
        raise ValueError(f"window must have {m} entries")
    ctx, inverse, powers = _ek_step_data(tuple(consts.theta_list), precision_bits)
    window = [ctx.mpc(int(k)) for k in K_window]
    y = [ctx.fdot(row, window) for row in inverse]
    nxt = ctx.fsum(powers[j] * y[j] for j in range(m))
    pred = ctx.re(nxt)
    halfwidth = (ctx.convert(consts.L_exact) - 1) / 2
    lo = int(ctx.floor(pred - halfwidth))
    hi = int(ctx.ceil(pred + halfwidth))
    slack = ctx.mpf(2) ** -40
    candidates = tuple(
        c for c in range(lo, hi + 1) if abs(pred - c) <= halfwidth + slack
    )
    best = int(ctx.nint(pred))
    margin = (
        ctx.convert(consts.rho) * consts.theta1 * consts.vandermonde_norm
        * consts.vandermonde_inv_norm
    )
    unique = (
        bool(abs(pred - best) + margin + slack < ctx.mpf("0.5")) or len(candidates) == 1
    )
    return EKPrediction(
        predicted=float(pred),
        best=best,
        candidates=candidates,
        unique=unique,
    )


class EKFrequencyReport(NamedTuple):
    count: int
    fraction: float
    N: int
    rho: Fraction
    distances: tuple[float, ...]


def ek_frequency(
    theta_list: Sequence,
    a_coeffs: Sequence,
    omega,
    N: int,
    rho,
    precision_bits: int = 0,
) -> EKFrequencyReport:
    """Count of n in [1, N] with ||omega * sum_j a_j theta_j^n|| >= rho.

    Requires a_1 = 1 and conjugate-pair symmetry of the coefficients (each
    non-real eigenvalue's partner carries the conjugate coefficient), which
    makes the sums real.  Precision escalates until every comparison against
    rho is decided; if a distance equals rho exactly (possible for rational
    orbits) no precision suffices and ``PrecisionExhausted`` is raised."""
    m = len(theta_list)
    if len(a_coeffs) != m:
        raise ValueError("need one coefficient per eigenvalue")
    # validation needs only moderate accuracy: 53 bits; every precision
    # level re-converts the working copies from the original inputs
    ctx = _context(53)
    zs = tuple(ctx.mpc(z) for z in theta_list)
    avals = tuple(ctx.mpc(a) for a in a_coeffs)
    if avals[0] != 1:
        raise ValueError("leading coefficient must be exactly 1")
    tol = ctx.mpf(2) ** -30
    for i in range(m):
        partner = None
        for j in range(m):
            if abs(zs[j] - ctx.conj(zs[i])) <= tol * (1 + abs(zs[i])):
                partner = j
                break
        if partner is None or abs(
            avals[partner] - ctx.conj(avals[i])
        ) > tol * (1 + abs(avals[i])):
            raise ValueError("coefficients must be conjugate-symmetric")
    if N < 1:
        raise ValueError("N must be at least 1")
    rho_f = Fraction(rho) if not isinstance(rho, Fraction) else rho
    if not 0 < rho_f <= Fraction(1, 2):
        raise ValueError("rho must lie in (0, 1/2]")
    om = omega
    theta_max = max((abs(z) for z in zs), default=ctx.mpf(1))
    base_bits = precision_bits or int(N * ctx.log(max(theta_max, 2), 2)) + 96
    bits = max(base_bits, 96)
    while bits <= PRECISION_CAP_BITS:
        ctx.prec = bits
        zs = tuple(ctx.mpc(z) for z in theta_list)
        rr = ctx.mpf(rho_f.numerator) / rho_f.denominator
        omv = ctx.mpf(om) if not isinstance(om, Fraction) else ctx.mpf(
            om.numerator
        ) / om.denominator
        avals = tuple(ctx.mpc(a) for a in a_coeffs)
        theta_max = max((abs(z) for z in zs), default=ctx.mpf(1))
        powers = [ctx.mpc(a) for a in avals]
        # running bound on the accumulated rounding error of x
        mag = ctx.fsum(abs(a) for a in avals) * (abs(omv) + 1)
        ulp = ctx.mpf(2) ** (4 - bits)
        count = 0
        distances = []
        ambiguous = False
        for n in range(1, N + 1):
            powers = [powers[j] * zs[j] for j in range(m)]
            mag = mag * theta_max
            x = omv * ctx.re(ctx.fsum(powers))
            guard = mag * (n + 3) * ulp
            d = abs(x - ctx.nint(x))
            distances.append(float(d))
            if abs(d - rr) <= guard:
                ambiguous = True
                break
            if d >= rr:
                count += 1
        if not ambiguous:
            return EKFrequencyReport(
                count=count,
                fraction=count / N,
                N=N,
                rho=rho_f,
                distances=tuple(distances),
            )
        bits *= 2
    raise PrecisionExhausted("distance comparison against rho undecided")
