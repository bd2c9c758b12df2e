"""Two-atom self-similar measures on the line: truncated Fourier-transform
products, certified log-decay scans when the contraction's inverse has a
conjugate outside the unit circle, and the classical non-decay phenomenon
along powers of a PV number.

The measure with contraction ratio lam in (0, 1) and bias p is the law of
sum_{n>=0} eps_n lam^n where the signs eps_n are independent and equal -1
with probability p, +1 with probability 1-p.  Its Fourier transform is the
infinite product of the factors

    p e^(-2 pi i lam^n xi) + (1-p) e^(2 pi i lam^n xi)
        = cos(2 pi lam^n xi) + i (1-2p) sin(2 pi lam^n xi),

which reduces to the cosine product in the unbiased case p = 1/2.

Phases are handled exactly where possible: rational lam and xi go through
`fractions.Fraction` modular reduction (so quarter-period factors vanish
exactly), and powers of an algebraic theta = 1/lam go through exact integer
coordinates in Z[theta] evaluated on certified rational brackets, with the
bracket width scaled to the power so that high powers lose no phase
accuracy.  Those enclosures of theta^k do not depend on the frequency and
are kept in a bounded grow-only memo per theta; phases are integer residues
(r, m) meaning r/m.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .algebraic import (
    AlgebraicInteger,
    ZThetaElement,
    classify,
    prop_alg_constants,
    zt_mul_theta,
    _scaled_bracket,
    _zt_scaled,
)
from .errors import PrecisionExhausted, TailNotConverged, WrongClass

__all__ = [
    "BernoulliParams",
    "FourierValue",
    "BCScanRow",
    "BCScanReport",
    "ErdosReport",
    "bernoulli_params",
    "params_from_theta",
    "bc_fourier",
    "bc_log_decay_scan",
    "erdos_nondecay",
]


# ---------------------------------------------------------------------------
# parameters


@dataclass(frozen=True)
class BernoulliParams:
    """Contraction ratio (as a certified rational enclosure), bias, and --
    when the inverse ratio is algebraic -- the algebraic integer theta with
    1/theta inside the enclosure.

    ``lam_interval`` is exact: for rational ratios both endpoints coincide;
    for algebraic ones the enclosure comes from a certified bracket of theta
    and the product theta * lam provably contains 1.
    """

    lam_interval: tuple[Fraction, Fraction]
    p: Fraction
    theta: AlgebraicInteger | None = None

    def __post_init__(self) -> None:
        lo, hi = self.lam_interval
        if not (0 < lo <= hi < 1):
            raise ValueError("contraction ratio must lie in (0, 1)")
        if not (0 <= self.p <= 1):
            raise ValueError("bias must lie in [0, 1]")

    @property
    def lam(self) -> float:
        lo, hi = self.lam_interval
        return float((lo + hi) / 2)

    @property
    def lam_exact(self) -> Fraction | None:
        lo, hi = self.lam_interval
        return lo if lo == hi else None


def bernoulli_params(lam, p) -> BernoulliParams:
    """Parameters for an exactly known rational contraction ratio.

    When 1/lam is an integer n >= 2 the algebraic description (root of
    x - n) is attached automatically.
    """
    lamf = Fraction(lam)
    pf = Fraction(p)
    theta = None
    if lamf > 0 and (1 / lamf).denominator == 1 and (1 / lamf) >= 2:
        n = int(1 / lamf)
        theta = AlgebraicInteger.from_poly((1, -n))
    return BernoulliParams(lam_interval=(lamf, lamf), p=pf, theta=theta)


def params_from_theta(
    ai: AlgebraicInteger, p, precision_bits: int = 160
) -> BernoulliParams:
    """Parameters with contraction ratio 1/theta for an algebraic integer
    theta > 1, with the ratio enclosed by inverting a certified bracket."""
    lo, hi = ai.real_bracket(precision_bits)
    if lo <= 1:
        raise ValueError("theta must exceed 1")
    return BernoulliParams(
        lam_interval=(1 / hi, 1 / lo), p=Fraction(p), theta=ai
    )


# ---------------------------------------------------------------------------
# exact trigonometry on rational phases


def _factor_from_phase(r: int, m: int, one_minus_2p: float) -> complex:
    """cos(2 pi r/m) + i (1-2p) sin(2 pi r/m) for m > 0, with exact
    quarter-period values.

    The residue is folded to its signed representative r/m in [-1/2, 1/2]
    before any float trigonometry, so negating the frequency mirrors every
    factor exactly (bit-for-bit conjugate symmetry); r/m is then a quarter
    period exactly when r == 0, 2r == m or 4r == m."""
    r %= m
    sign = 1.0
    if 2 * r > m:
        r = m - r
        sign = -1.0
    if r == 0:
        c, s = 1.0, 0.0
    elif 2 * r == m:
        c, s = -1.0, 0.0
    elif 4 * r == m:
        c, s = 0.0, 1.0
    else:
        a = 2 * math.pi * (r / m)
        c, s = math.cos(a), math.sin(a)
    return complex(c, one_minus_2p * sign * s)


# ---------------------------------------------------------------------------
# truncated Fourier products


@dataclass(frozen=True)
class FourierValue:
    """Truncated transform value with a bound on the dropped tail.

    ``tail_log_bound`` dominates |log| of the omitted factor product, so the
    full transform modulus lies within exp(+-tail_log_bound) of
    |value|.
    """

    value: complex
    tail_log_bound: float
    n_terms: int
    xi: float


def bc_fourier(params: BernoulliParams, xi, n_terms: int) -> FourierValue:
    """Product of the first ``n_terms`` transform factors at frequency xi.

    Requires enough terms that the first omitted phase satisfies
    2 pi lam^n_terms |xi| < 1/2; otherwise the tail estimate does not apply
    and TailNotConverged is raised.  The tail bound is
    sum_{n >= n_terms} 2 pi^2 * 4 p (1-p) * lam^(2n) xi^2.  At an enclosed
    (algebraic) ratio each phase is the midpoint of an enclosure of
    lam^n xi with dyadic ends, and PrecisionExhausted is raised once that
    enclosure is wider than 2^-30.
    """
    if n_terms < 0:
        raise ValueError("n_terms must be nonnegative")
    xif = Fraction(xi)
    lo, hi = params.lam_interval
    phase0 = 2 * math.pi * float(hi**n_terms) * abs(float(xif))
    if phase0 >= 0.5:
        raise TailNotConverged(
            "n_terms leaves a first omitted phase of at least 1/4 turn; "
            "increase n_terms"
        )
    p = float(params.p)
    pq = 4 * float(params.p * (1 - params.p))
    # quadratic factor expansion, with the remainder of -log(1-x) <= x/(1-x)
    # absorbed through the first omitted phase (below 1/2 by the guard)
    tail = (
        2 * math.pi**2 * pq * float(xif) ** 2 * float(hi) ** (2 * n_terms)
        / (1 - float(hi) ** 2) / (1 - phase0**2)
    )
    if xif == 0:
        return FourierValue(complex(1, 0), 0.0, n_terms, 0.0)

    one_minus_2p = 1 - 2 * p
    value = complex(1, 0)
    exact = params.lam_exact
    if exact is not None:
        x = xif
        for _ in range(n_terms):
            value *= _factor_from_phase(x.numerator, x.denominator, one_minus_2p)
            x *= exact
    else:
        # [plo, phi] / 2^B encloses lam^n; each step rounds its ends outward
        # to the scale 2^-B, so they stay about B bits long.  2^-B is at most
        # 2^-32 of the gap hi - lo, and the rounding moves the ends by less
        # than 2^-B / (1 - hi) in all.
        B = lo.denominator.bit_length() + hi.denominator.bit_length() + 32
        plo = phi = 1 << B
        num, den = xif.numerator, xif.denominator
        too_wide = den << (B - 30)  # width |xi| (phi - plo) / 2^B > 2^-30
        for _ in range(n_terms):
            if (phi - plo) * abs(num) > too_wide:
                raise PrecisionExhausted(
                    "contraction-ratio enclosure too wide for this frequency; "
                    "rebuild the parameters with more precision bits"
                )
            # the midpoint xi (plo + phi) / 2^(B + 1)
            value *= _factor_from_phase(
                (plo + phi) * num, den << (B + 1), one_minus_2p
            )
            plo = plo * lo.numerator // lo.denominator
            phi = -(-phi * hi.numerator // hi.denominator)
    return FourierValue(value, tail, n_terms, float(xif))


# ---------------------------------------------------------------------------
# certified phases of theta^k * u


_POWERS_LOCK = threading.Lock()  # guards only the memo's store
_POWER_ROWS = 1 << 10  # the most powers of theta the memo stores


@lru_cache(maxsize=32)
def _power_enclosures(ai: AlgebraicInteger, extra_bits: int) -> list:
    """``[log2_theta, rows]``: the bracket-width step per power and the
    rows of ``_power_rows`` read so far, at most ``_POWER_ROWS`` of them."""
    return [max(1, math.ceil(math.log2(float(ai.theta)) + 1e-9)), ()]


def _power_rows(
    ai: AlgebraicInteger, count: int, extra_bits: int
) -> Sequence[tuple[int, int]]:
    """At least ``count`` rows (L + H, S): [L, H] / S encloses theta^k,
    from exact Z[theta] coordinates evaluated on a bracket of width
    ``extra_bits + log2_theta (k + 1)`` bits.

    A longer request than the memo holds computes the missing rows and
    stores the rows up to ``_POWER_ROWS``."""
    memo = _power_enclosures(ai, extra_bits)
    log2_theta, rows = memo
    if len(rows) >= count:
        return rows
    rows = list(rows)
    el = ZThetaElement.from_int(1, ai.degree)
    for k in range(count):
        if k == len(rows):
            bits = extra_bits + log2_theta * (k + 1)
            L, H, S = _zt_scaled(el.coords, *_scaled_bracket(*ai.real_bracket(bits)))
            rows.append((L + H, S))
        el = zt_mul_theta(el, ai)
    with _POWERS_LOCK:
        if len(memo[1]) < min(count, _POWER_ROWS):
            memo[1] = tuple(rows[:_POWER_ROWS])
    return rows


def _certified_phase_table(
    ai: AlgebraicInteger, u: Fraction, count: int, extra_bits: int = 70
) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """For k = 0..count-1: the fractional part of theta^k u and the distance
    of 2 theta^k u to the nearest integer, each as an integer pair (r, m)
    meaning r/m, from exact Z[theta] coordinates evaluated on a bracket
    whose width scales with k.

    The enclosures [L, H] / S of theta^k do not depend on u; they come from
    a grow-only memo per (theta, extra_bits) (``_power_rows``), so a warm
    table fetches no bracket.  The midpoint of u [L/S, H/S] is
    M / (2 S u.den) with M = (L + H) u.num: its fractional part is
    (M mod 2 S u.den) / (2 S u.den) and that of twice the midpoint is
    (M mod S u.den) / (S u.den), exactly as in rational arithmetic."""
    if u == 0:
        return [((0, 1), (0, 1))] * count
    rows = _power_rows(ai, count, extra_bits)
    num, den = u.numerator, u.denominator
    return [_midpoint_phases(total, S, num, den) for total, S in rows[:count]]


def _midpoint_phases(
    total: int, S: int, num: int, den: int
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Fractional part of the midpoint m of (num/den) [L/S, H/S] with
    L + H = total (S, den > 0), and the distance of 2m to the nearest
    integer, as unreduced (r, m) pairs."""
    M = total * num
    den2 = S * den
    r2 = M % den2
    return (M % (2 * den2), 2 * den2), (min(r2, den2 - r2), den2)


def _small_phase_product(lam_mid: float, u: float, one_minus_2p: float,
                         depth: int) -> complex:
    """Product of the factors at frequencies u * lam^j, j = 1..depth."""
    value = complex(1, 0)
    x = u
    for _ in range(depth):
        x *= lam_mid
        a = 2 * math.pi * x
        value *= complex(math.cos(a), one_minus_2p * math.sin(a))
    return value


# ---------------------------------------------------------------------------
# log-decay scan


@dataclass(frozen=True)
class BCScanRow:
    N: int
    u: float
    xi: float
    value: complex
    modulus: float
    bound_chain: float
    scan_value: float


@dataclass(frozen=True)
class BCScanReport:
    """Grid scan of |transform| * (log(2+|xi|))^alpha over xi = theta^N u.

    Each row carries both the true truncated product and the certified
    factor-chain bound prod_{n<=N} (1 - ((1-p)/2) ||2 theta^n u||^2).
    """

    alpha: float
    p: Fraction
    N_max: int
    rows: tuple[BCScanRow, ...]
    sup_value: float
    truncation: float


def bc_log_decay_scan(
    ai: AlgebraicInteger,
    p,
    N_max: int,
    u_grid: Sequence | None = None,
    tail_digits: int = 8,
) -> BCScanReport:
    """Scan the transform of the measure with ratio 1/theta over the
    multiplicative grid xi = theta^N u, reporting the decay-normalized
    values and the per-point factor-chain bound.

    Requires theta to have a conjugate outside the unit circle (the class
    for which the chain is summable) and a genuine bias p in (0, 1).
    """
    if not (0 < Fraction(p) < 1):
        raise ValueError("bias must lie strictly between 0 and 1")
    if N_max < 0:
        raise ValueError("N_max must be nonnegative")
    cls = classify(ai)
    if cls.kind != "HasConjugateOutside":
        raise WrongClass(
            f"log-decay scan requires a conjugate outside the unit circle, "
            f"got {cls.kind}"
        )
    pF = Fraction(p)
    alpha = float(prop_alg_constants(ai).alpha)
    th_lo, th_hi = ai.real_bracket(60)
    if u_grid is None:
        top = int(10 * th_lo)
        u_grid = [Fraction(k, 10) for k in range(10, top + 1)]
    ug = [Fraction(u) for u in u_grid]
    for u in ug:
        if not (0 <= u <= th_hi):
            raise ValueError("grid points must lie in [0, theta]")

    th_mid = float((th_lo + th_hi) / 2)
    lam_mid = 1 / th_mid
    depth = int(math.ceil(tail_digits * math.log(10) / math.log(th_mid))) + 1
    one_minus_2p = 1 - 2 * float(pF)
    cp = (1 - float(pF)) / 2
    pq = 4 * float(pF * (1 - pF))

    rows: list[BCScanRow] = []
    truncation = 0.0
    for u in ug:
        table = _certified_phase_table(ai, u, N_max + 1)
        uf = float(u)
        small = _small_phase_product(lam_mid, uf, one_minus_2p, depth)
        tail_u = (
            2 * math.pi**2 * pq * uf**2 * lam_mid ** (2 * depth)
            / (1 - lam_mid**2)
        )
        truncation = max(truncation, tail_u)
        prefix = complex(1, 0)
        chain = 1.0
        for N in range(N_max + 1):
            (r, m), (d2, m2) = table[N]
            prefix *= _factor_from_phase(r, m, one_minus_2p)
            chain *= 1 - cp * (d2 / m2) ** 2
            value = prefix * small
            xi = uf * th_mid**N
            modulus = abs(value)
            scan = modulus * math.log(2 + abs(xi)) ** alpha
            rows.append(
                BCScanRow(
                    N=N,
                    u=uf,
                    xi=xi,
                    value=value,
                    modulus=modulus,
                    bound_chain=chain,
                    scan_value=scan,
                )
            )
    rows.sort(key=lambda r: (r.N, r.u))
    sup_value = max(r.scan_value for r in rows) if rows else 0.0
    return BCScanReport(
        alpha=alpha,
        p=pF,
        N_max=N_max,
        rows=tuple(rows),
        sup_value=sup_value,
        truncation=truncation,
    )


# ---------------------------------------------------------------------------
# non-decay along powers of a PV number


@dataclass(frozen=True)
class ErdosReport:
    """|transform| sampled at xi = theta^N for a PV number theta, with the
    running infimum.  The floor is the observed infimum over the sampled
    range -- a recorded quantity, not a theorem constant."""

    lam: float
    p: Fraction
    N_values: tuple[int, ...]
    values: tuple[float, ...]
    running_inf: tuple[float, ...]
    floor: float
    positive: bool


def erdos_nondecay(
    ai: AlgebraicInteger,
    N_max: int,
    p=Fraction(1, 2),
    tail_digits: int = 10,
) -> ErdosReport:
    """Evaluate the transform of the ratio-1/theta measure at theta^N for
    N = 0..N_max, where theta is a PV number, so the phases theta^k
    accumulate near integers and the values do not tend to zero.

    Every power's distance to the integers enters through a certified
    bracket whose width shrinks with the power, so late factors keep full
    accuracy.
    """
    if N_max < 0:
        raise ValueError("N_max must be nonnegative")
    pF = Fraction(p)
    if not (0 < pF < 1):
        raise ValueError("bias must lie strictly between 0 and 1")
    cls = classify(ai)
    if cls.kind != "PV":
        raise WrongClass(
            f"non-decay sampling requires a PV number, got {cls.kind}"
        )
    th_lo, th_hi = ai.real_bracket(60)
    th_mid = float((th_lo + th_hi) / 2)
    lam_mid = 1 / th_mid
    depth = int(math.ceil(tail_digits * math.log(10) / math.log(th_mid))) + 1
    one_minus_2p = 1 - 2 * float(pF)

    table = _certified_phase_table(ai, Fraction(1), N_max + 1)
    small = _small_phase_product(lam_mid, 1.0, one_minus_2p, depth)
    values: list[float] = []
    prefix = complex(1, 0)
    for N in range(N_max + 1):
        (r, m), _ = table[N]
        prefix *= _factor_from_phase(r, m, one_minus_2p)
        values.append(abs(prefix * small))
    running: list[float] = []
    cur = math.inf
    for v in values:
        cur = min(cur, v)
        running.append(cur)
    floor = running[-1]
    return ErdosReport(
        lam=lam_mid,
        p=pF,
        N_values=tuple(range(N_max + 1)),
        values=tuple(values),
        running_inf=tuple(running),
        floor=floor,
        positive=floor > 0,
    )
