"""Certified algebraic-integer arithmetic.

Monic integer polynomials are given highest-degree-first.  Roots are enclosed
in certified disks (center + radius): the radius ``s * |p(z)/p'(z)|`` always
contains a true root, and pairwise disjointness pins exactly one root per
disk.  Roots exactly on the unit circle are detected by exact integer
arithmetic (gcd with the reciprocal polynomial, then the ``y = x + 1/x``
transform), never by interval comparisons against 1, so PV / Salem /
has-conjugate-outside classification is certified.

Elements of the ring generated by a root are tuples of integer coordinates in
the power basis; multiplication by the root is the exact companion-matrix
action, and distances to the nearest integer are certified by exact interval
arithmetic over a bisected root bracket.

Integer kernel.  Bracket endpoints are rationals with one common denominator
(dyadic ones, since they come from an mpf disk refined by bisection), so an
enclosure is evaluated on Python integers: both endpoints become integers
a <= b over a denominator d, and the interval Horner scheme keeps its
running enclosure as integers L <= H over a scale S that is multiplied by d
at each step, taking the min and max of the four endpoint products.  No
``Fraction`` is built inside the loop; callers that only compare or reduce
the enclosure (the nearest-integer split, the phase tables) work on
(L, H, S) directly, and ``zt_value_interval`` builds one ``Fraction`` per
endpoint at return.  The values are exactly those of rational interval
arithmetic, so every result equals the one computed with ``Fraction``s.
Bisection is deterministic, so each root's bisection is kept as its path
(one integer of left/right steps): a bracket of any width already reached
is read off by a shift, and a narrower one resumes from the narrowest
bracket reached so far.  Root certification, classification and the
decay constants depend only on their (immutable) arguments and are
memoised in bounded caches.

Field values.  A value of Q(theta) is a tuple of integer Z[theta] numerators
over one common positive denominator: ``zt_mul_theta`` multiplies the
numerators by theta, and ``qt_value_interval`` encloses the value with the
same interval Horner kernel.  For theta > 0 the Horner enclosure is never
wider than the power-form one (each coefficient times the matching power of
an endpoint, summed), since interval products are subdistributive and exact
on positive intervals; for fields of degree <= 2, whose values are linear in
theta, the two are equal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from threading import Lock
from typing import NamedTuple, Sequence

import mpmath as mp
from mpmath import libmp

from .errors import NotSquarefree, PrecisionExhausted, WrongClass

__all__ = [
    "PRECISION_CAP_BITS",
    "RootDisk",
    "AlgebraicInteger",
    "ZThetaElement",
    "Classification",
    "CertifiedDistance",
    "PropAlgConstants",
    "certify_roots",
    "classify",
    "zt_mul_theta",
    "zt_value_interval",
    "qt_value_interval",
    "frac_dist",
    "prop_alg_constants",
    "garsia_lower_bound",
]

PRECISION_CAP_BITS = 2**20


# ---------------------------------------------------------------------------
# explicit-precision numerics
#
# mpmath's global context ``mp`` holds one process-wide working precision;
# the package neither reads nor sets it.  Scalar arithmetic calls ``libmp``
# with the precision named at the call, and matrix and root-finding code
# runs in a fresh private context per call.  Results are rebuilt exactly as
# global-context values, so they pickle and compare as before.

_RND = libmp.round_nearest


def _context(prec: int) -> "mp.MPContext":
    """A fresh mpmath context at ``prec`` bits, private to one call."""
    ctx = mp.MPContext()
    ctx.prec = prec
    return ctx


def _public(x):
    """An mpf or mpc of any context as the same exact global-context value."""
    return mp.make_mpc(x._mpc_) if hasattr(x, "_mpc_") else mp.make_mpf(x._mpf_)


def _mpf_ratio(q: Fraction, prec: int) -> tuple:
    """``mpf(q.numerator) / q.denominator`` at ``prec`` bits as a libmp
    value: the numerator is rounded, then the quotient."""
    return libmp.mpf_div(
        libmp.from_int(q.numerator, prec, _RND), libmp.from_int(q.denominator),
        prec, _RND,
    )


# ---------------------------------------------------------------------------
# exact polynomial helpers (coefficients highest degree first)


def _as_int_poly(coeffs: Sequence[int]) -> tuple[int, ...]:
    p = tuple(int(c) for c in coeffs)
    if not p:
        raise ValueError("empty polynomial")
    if p[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    return p


def _poly_degree(p: Sequence) -> int:
    return len(p) - 1


def _poly_derivative(p: Sequence[int]) -> tuple[int, ...]:
    s = _poly_degree(p)
    if s == 0:
        return (0,)
    return tuple((s - i) * p[i] for i in range(s))


def _poly_eval_mp(ctx: "mp.MPContext", p: Sequence[int], z) -> "mp.mpc":
    acc = ctx.mpf(0)
    for c in p:
        acc = acc * z + c
    return acc


def _frac_poly_trim(p: list[Fraction]) -> list[Fraction]:
    i = 0
    while i < len(p) - 1 and p[i] == 0:
        i += 1
    return p[i:]


def _frac_poly_mod(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = a[:]
    while len(a) >= len(b) and any(c != 0 for c in a):
        if a[0] == 0:
            a.pop(0)
            continue
        factor = a[0] / b[0]
        for i in range(len(b)):
            a[i] -= factor * b[i]
        a.pop(0)
    return _frac_poly_trim(a)


def _poly_gcd(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Primitive integer gcd with positive leading coefficient."""
    a = _frac_poly_trim([Fraction(c) for c in p])
    b = _frac_poly_trim([Fraction(c) for c in q])
    while any(b):
        a, b = b, _frac_poly_mod(a, b)
    return _primitive_part(a)


def _primitive_part(v: Sequence[Fraction]) -> tuple[int, ...]:
    """The primitive integer vector proportional to a nonzero rational one,
    with its first nonzero entry positive."""
    den = math.lcm(*(c.denominator for c in v))
    ints = [int(c * den) for c in v]
    g = math.gcd(*ints)
    if next(c for c in ints if c) < 0:
        g = -g
    return tuple(c // g for c in ints)


def _poly_divexact(p: Sequence[int], d: Sequence[int]) -> tuple[int, ...]:
    """Exact polynomial division p / d over the rationals, validated."""
    a = [Fraction(c) for c in p]
    out: list[Fraction] = []
    while len(a) >= len(d):
        factor = a[0] / Fraction(d[0])
        out.append(factor)
        for i in range(len(d)):
            a[i] -= factor * d[i]
        a.pop(0)
    if any(c != 0 for c in a):
        raise ArithmeticError("inexact polynomial division")
    result = []
    for c in out:
        if c.denominator != 1:
            raise ArithmeticError("non-integer quotient")
        result.append(int(c))
    return tuple(result)


def _strip_root(p: Sequence[int], r: int) -> tuple[int, ...]:
    """Exact synthetic division by (x - r)."""
    out = [p[0]]
    for c in p[1:]:
        out.append(c + r * out[-1])
    if out[-1] != 0:
        raise ArithmeticError(f"{r} is not a root")
    return tuple(out[:-1])


def is_squarefree(poly: Sequence[int]) -> bool:
    p = _as_int_poly(poly)
    if _poly_degree(p) <= 1:
        return True
    return _poly_degree(_poly_gcd(p, _poly_derivative(p))) == 0


# ---------------------------------------------------------------------------
# certified roots


@dataclass(frozen=True)
class RootDisk:
    """A certified enclosure: the disk |z - center| <= radius contains exactly
    one root; ``is_real`` marks disks that straddle the real axis (their root
    is real by conjugate symmetry)."""

    center: "mp.mpc"
    radius: "mp.mpf"
    is_real: bool

    def center_fractions(self) -> tuple[Fraction, Fraction]:
        """Exact rational (re, im) of the center (no rounding)."""
        return (
            _mpf_to_fraction(self.center.real),
            _mpf_to_fraction(self.center.imag),
        )

    def radius_fraction(self) -> Fraction:
        return _mpf_to_fraction(self.radius)

    def modulus_vs_one(self) -> str:
        """Exact comparison of the whole disk against the unit circle:
        "in" (entirely inside), "out" (entirely outside), or "straddles"."""
        re, im = self.center_fractions()
        r = self.radius_fraction()
        m2 = re * re + im * im
        if r < 1 and m2 < (1 - r) ** 2:
            return "in"
        if m2 > (1 + r) ** 2:
            return "out"
        return "straddles"

    def modulus_interval(self) -> tuple["mp.mpf", "mp.mpf"]:
        re, im = self.center_fractions()
        r = self.radius_fraction()
        m2 = re * re + im * im
        c = libmp.mpf_sqrt(_mpf_ratio(m2, 80), 80, _RND)
        rr = _mpf_ratio(r, 80)
        pad = libmp.from_man_exp(1, -70)
        lo = libmp.mpf_sub(libmp.mpf_sub(c, rr, 80, _RND), pad, 80, _RND)
        hi = libmp.mpf_add(libmp.mpf_add(c, rr, 80, _RND), pad, 80, _RND)
        if libmp.mpf_sign(lo) <= 0:
            lo = libmp.fzero
        return mp.make_mpf(lo), mp.make_mpf(hi)

    def real_interval(self) -> tuple[Fraction, Fraction]:
        if not self.is_real:
            raise ValueError("not a certified real root")
        c = _mpf_to_fraction(self.center.real)
        r = self.radius_fraction()
        return (c - r, c + r)


def _mpf_to_fraction(x: "mp.mpf") -> Fraction:
    """Exact rational value of a finite mpf; ``ValueError`` for inf, -inf
    and nan."""
    # direct mantissa/exponent extraction: exact, independent of the ambient
    # working precision (mp.mpf(x) would round); int() guards against gmpy2
    # mantissas leaking into Fraction internals
    sign, man, exp, _ = x._mpf_
    man, exp = int(man), int(exp)
    if man == 0:
        # zero has exponent 0; inf, -inf and nan a zero mantissa and a
        # nonzero special exponent
        if exp:
            raise ValueError(f"non-finite value {x}")
        return Fraction(0)
    value = Fraction(man) * (Fraction(2) ** exp)
    return -value if sign else value


def certify_roots(
    poly: Sequence[int], precision_bits: int = 128
) -> tuple[RootDisk, ...]:
    """Disjoint certified disks, one per root of a squarefree monic polynomial.

    Each disk radius is ``s * |p(z)/p'(z)|`` (inflated by a small guard), which
    always contains at least one root; disjointness of all ``s`` disks then
    certifies exactly one root per disk.  Precision escalates until every
    radius is at most ``2**-precision_bits`` and all disks are disjoint.
    Raises ``NotSquarefree`` when ``gcd(p, p')`` is nonconstant.  The disks
    are memoised per (polynomial, precision_bits).
    """
    return _certified_roots(_as_int_poly(poly), int(precision_bits))


@lru_cache(maxsize=256)
def _certified_roots(p: tuple[int, ...], precision_bits: int) -> tuple[RootDisk, ...]:
    if p[0] != 1:
        raise ValueError("polynomial must be monic")
    s = _poly_degree(p)
    if s == 0:
        return ()
    if not is_squarefree(p):
        raise NotSquarefree("polynomial has repeated roots")
    dp = _poly_derivative(p)

    prec = max(2 * precision_bits, 128)
    ctx = _context(prec)
    target = ctx.mpf(2) ** (-precision_bits)
    while prec <= PRECISION_CAP_BITS:
        ctx.prec = prec
        try:
            roots = ctx.polyroots(
                [ctx.mpf(c) for c in p], maxsteps=200, extraprec=prec
            )
        except libmp.NoConvergence:
            prec *= 2
            continue
        found: list[tuple] = []  # (center, radius, is_real)
        ok = True
        for z in roots:
            dval = _poly_eval_mp(ctx, dp, z)
            if dval == 0:
                ok = False
                break
            radius = s * abs(_poly_eval_mp(ctx, p, z) / dval)
            radius = radius * (1 + ctx.mpf(2) ** -16) + ctx.mpf(2) ** (-prec + 8)
            is_real = abs(ctx.im(z)) <= radius
            if is_real:
                # snap to the axis; doubling the radius keeps containment
                z = ctx.mpc(ctx.re(z), 0)
                radius = 2 * radius
            found.append((ctx.mpc(z), +radius, is_real))
        if ok:
            ok = all(r <= target for _, r, _ in found)
        if ok:
            ok = all(
                abs(found[i][0] - found[j][0]) > found[i][1] + found[j][1]
                for i in range(len(found))
                for j in range(i + 1, len(found))
            )
        if ok:
            found.sort(key=lambda d: (
                -float(abs(d[0])), -float(d[0].real), float(d[0].imag)
            ))
            return tuple(RootDisk(_public(z), _public(r), real) for z, r, real in found)
        prec *= 2
    raise PrecisionExhausted(
        f"could not certify roots at width 2^-{precision_bits} under the precision cap"
    )


# ---------------------------------------------------------------------------
# exact on-circle root counting


def _reciprocal(p: Sequence[int]) -> tuple[int, ...]:
    rev = tuple(reversed(tuple(p)))
    i = 0
    while i < len(rev) - 1 and rev[i] == 0:
        i += 1
    return rev[i:]


def _palindrome_transform(core: Sequence[int]) -> tuple[int, ...]:
    """For even palindromic core of degree 2d, the integer q with
    core(x) = x^d q(x + 1/x); roots of core on the unit circle correspond to
    real roots of q in (-2, 2)."""
    asc = list(reversed(list(core)))
    deg = len(asc) - 1
    if deg % 2 != 0:
        raise ArithmeticError("transform needs even degree")
    d = deg // 2
    if d == 0:
        return (1,)
    # P_k(y) = x^k + x^-k as a polynomial in y: P_0 = 2, P_1 = y,
    # P_{k+1} = y P_k - P_{k-1}
    q_asc = [0] * (d + 1)
    q_asc[0] = asc[d]
    pk_prev = [2]
    pk = [0, 1]
    for k in range(1, d + 1):
        for i, c in enumerate(pk):
            q_asc[i] += asc[d + k] * c
        if k < d:
            nxt = [0] + pk
            for i, c in enumerate(pk_prev):
                nxt[i] -= c
            pk_prev, pk = pk, nxt
    return tuple(reversed(q_asc))


def _exact_circle_count(poly: Sequence[int]) -> int:
    """Number of roots of a squarefree monic integer polynomial lying exactly
    on the unit circle, by exact integer arithmetic."""
    p = _as_int_poly(poly)
    while p[-1] == 0:  # roots at zero are off the circle
        p = p[:-1]
    if _poly_degree(p) == 0:
        return 0
    g = _poly_gcd(p, _reciprocal(p))
    count = 0
    if _poly_sign_scaled(g, 1, 1) == 0:
        g = _strip_root(g, 1)
        count += 1
    if _poly_sign_scaled(g, -1, 1) == 0:
        g = _strip_root(g, -1)
        count += 1
    if _poly_degree(g) == 0:
        return count
    q = _palindrome_transform(g)
    # count real roots of q strictly inside (-2, 2), certified
    prec = 128
    while prec <= PRECISION_CAP_BITS:
        try:
            disks = certify_roots(q, prec // 2)
        except PrecisionExhausted:
            break
        inside = 0
        undecided = False
        for d in disks:
            if not d.is_real:
                continue
            lo, hi = d.real_interval()
            if -2 < lo and hi < 2:
                inside += 1
            elif hi <= -2 or lo >= 2:
                continue
            else:
                undecided = True
        if not undecided:
            return count + 2 * inside
        prec *= 2
    raise PrecisionExhausted("cannot separate transform roots from ±2")


# ---------------------------------------------------------------------------
# the algebraic integer


@dataclass(frozen=True)
class AlgebraicInteger:
    """A distinguished real root > 1 of a monic integer polynomial, with
    certified enclosures of all conjugates.

    ``height`` is the maximum absolute value of the non-leading coefficients
    (writing the polynomial as x^s - b_1 x^{s-1} - ... - b_s, the maximum
    |b_j|)."""

    poly: tuple[int, ...]
    height: int
    root_index: int
    roots: tuple[RootDisk, ...]
    precision_bits: int

    @classmethod
    def from_poly(
        cls,
        coeffs: Sequence[int],
        precision_bits: int = 128,
        root_index: int | None = None,
    ) -> "AlgebraicInteger":
        p = _as_int_poly(coeffs)
        if p[0] != 1:
            raise ValueError("polynomial must be monic")
        roots = certify_roots(p, precision_bits)
        if root_index is None:
            candidates = [
                i
                for i, d in enumerate(roots)
                if d.is_real and d.real_interval()[0] > 1
            ]
            if candidates:
                root_index = max(
                    candidates, key=lambda i: roots[i].real_interval()[0]
                )
            else:
                root_index = 0
        height = max(abs(c) for c in p[1:]) if len(p) > 1 else 0
        return cls(
            poly=p,
            height=height,
            root_index=root_index,
            roots=roots,
            precision_bits=precision_bits,
        )

    @property
    def degree(self) -> int:
        return _poly_degree(self.poly)

    @property
    def theta(self) -> "mp.mpf":
        return mp.re(self.roots[self.root_index].center)

    def real_bracket(self, width_bits: int) -> tuple[Fraction, Fraction]:
        """Exact rational bracket of width <= 2**-width_bits around the
        distinguished root (which must be real)."""
        a, b, d = _root_bisection(self.poly, self.roots[self.root_index]).bracket(
            width_bits
        )
        lo = Fraction(a, d)
        return (lo, lo) if a == b else (lo, Fraction(b, d))


def _poly_sign_scaled(p: Sequence[int], num: int, den: int) -> int:
    """Sign of p(num/den) for den > 0, from the integer p(num/den) * den**deg."""
    acc = p[0]
    scale = 1
    for c in p[1:]:
        scale *= den
        acc = acc * num + c * scale
    return (acc > 0) - (acc < 0)


class _RootBisection:
    """Bisection of one isolating bracket [lo, hi] = [A/d, (A + D)/d] of a
    root of ``poly``, kept as its path.

    After k steps with path m (a k-bit integer, one bit per step, 1 where the
    lower end moved up) the bracket is [A 2^k + D m, A 2^k + D (m + 1)] over
    d 2^k, so the bracket after any j <= k steps is read off ``m >> (k - j)``
    and a narrower one resumes from step k.  The midpoints are those of
    plain bisection from [lo, hi], hence so is every bracket.  When a
    midpoint (or an end) is the root itself, every later bracket is that
    point."""

    def __init__(self, poly: tuple[int, ...], lo: Fraction, hi: Fraction) -> None:
        d = math.lcm(lo.denominator, hi.denominator)
        a = lo.numerator * (d // lo.denominator)
        self.poly = poly
        self.a, self.span, self.d = a, hi.numerator * (d // hi.denominator) - a, d
        # (steps taken, path, step after which the bracket is the exact root
        # or None, that root's numerator over d 2^step)
        self._state: tuple[int, int, int | None, int] = (0, 0, None, 0)
        self._lock = Lock()
        s_lo = _poly_sign_scaled(poly, a, d)
        s_hi = _poly_sign_scaled(poly, a + self.span, d)
        if s_lo == 0:
            self._state = (0, 0, 0, a)
        elif s_hi == 0:
            self._state = (0, 0, 0, a + self.span)
        elif s_lo == s_hi:
            raise ArithmeticError("bracket does not straddle the root")
        self.sign_lo = s_lo

    def _steps_for(self, width_bits: int) -> int:
        """Fewest halvings j with span / (d 2^j) <= 2^-width_bits."""
        need = self.span << width_bits
        j = max(0, need.bit_length() - self.d.bit_length())
        while j > 0 and (self.d << (j - 1)) >= need:
            j -= 1
        while (self.d << j) < need:
            j += 1
        return j

    def bracket(self, width_bits: int) -> tuple[int, int, int]:
        """(a, b, den) with [a/den, b/den] the bracket of width at most
        2**-width_bits; den > 0."""
        j = self._steps_for(width_bits)
        if j > self._state[0] and self._state[2] is None:
            with self._lock:
                steps, path, exact_at, _ = self._state
                if exact_at is None and j > steps:
                    self._state = self._extend(steps, path, j)
        steps, path, exact_at, root = self._state
        if exact_at is not None and j >= exact_at:
            return root, root, self.d << exact_at
        lo = (self.a << j) + self.span * (path >> (steps - j))
        return lo, lo + self.span, self.d << j

    def _extend(self, steps: int, path: int, target: int):
        poly, a, span, d, sign_lo = self.poly, self.a, self.span, self.d, self.sign_lo
        while steps < target:
            num = (a << (steps + 1)) + span * (2 * path + 1)
            sign = _poly_sign_scaled(poly, num, d << (steps + 1))
            if sign == 0:
                return steps, path, steps + 1, num
            path = 2 * path + (sign == sign_lo)
            steps += 1
        return steps, path, None, 0


@lru_cache(maxsize=256)
def _root_bisection(poly: tuple[int, ...], disk: RootDisk) -> _RootBisection:
    lo, hi = disk.real_interval()
    return _RootBisection(poly, lo, hi)


# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class Classification:
    """kind: PV | Salem | HasConjugateOutside | Degenerate.  ``witness`` is the
    index (into the root list) of the certifying conjugate, ``modulus`` its
    modulus rounded to 53 bits, and ``statuses`` the per-root verdicts
    ("in" / "out" / "circle")."""

    kind: str
    witness: int | None
    modulus: "mp.mpf | None"
    statuses: tuple[str, ...]


def _root_statuses(
    ai: AlgebraicInteger, cap_bits: int = 2**14
) -> tuple[tuple[str, ...], tuple[RootDisk, ...]]:
    """Certified in/out/on-circle status of every root.

    Off-circle roots are eventually separated from the unit circle by disk
    refinement; the exact on-circle count pins the rest without any interval
    comparison against 1.
    """
    circle_count = _exact_circle_count(ai.poly)
    bits = max(ai.precision_bits, 64)
    while bits <= cap_bits:
        disks = certify_roots(ai.poly, bits)
        statuses: list[str | None] = []
        for d in disks:
            verdict = d.modulus_vs_one()
            statuses.append(None if verdict == "straddles" else verdict)
        undecided = [i for i, st in enumerate(statuses) if st is None]
        if len(undecided) == circle_count:
            for i in undecided:
                statuses[i] = "circle"
            return tuple(statuses), disks  # type: ignore[arg-type]
        bits *= 2
    raise PrecisionExhausted(
        "cannot separate conjugate moduli from 1 under the precision cap"
    )


def classify(ai: AlgebraicInteger, cap_bits: int = 2**14) -> Classification:
    """Certified PV / Salem / has-conjugate-outside classification.

    PV: every other root strictly inside the unit circle.  Salem: no root
    outside except the distinguished one, and at least one exactly on the
    circle.  HasConjugateOutside: some other root strictly outside.
    Degenerate: the distinguished root is not a real number > 1.  Raises
    ``PrecisionExhausted`` only when off-circle roots cannot be separated from
    the circle under the precision cap.  Memoised per (ai, cap_bits).
    """
    return _classification(ai, cap_bits)


@lru_cache(maxsize=256)
def _classification(ai: AlgebraicInteger, cap_bits: int) -> Classification:
    statuses, disks = _root_statuses(ai, cap_bits)
    dom = disks[ai.root_index]
    dom_ok = dom.is_real
    if dom_ok:
        lo2, hi2 = dom.real_interval()
        if lo2 <= 1:
            if hi2 <= 1:
                dom_ok = False
            elif _poly_sign_scaled(ai.poly, 1, 1) == 0:
                # the bracket holds exactly one root, so that root is 1 itself
                dom_ok = False
            else:
                bisection = _root_bisection(ai.poly, dom)
                width = 64
                while True:
                    a, b, d = bisection.bracket(width)
                    if a > d:
                        dom_ok = True
                        break
                    if b < d or a == b:
                        dom_ok = a > d
                        break
                    width *= 2
                    if width > PRECISION_CAP_BITS:
                        raise PrecisionExhausted(
                            "cannot separate the distinguished root from 1"
                        )
    if not dom_ok:
        return Classification("Degenerate", None, None, statuses)

    # conjugate moduli at 53 bits
    modulus = [mp.make_mpf(libmp.mpc_abs(d.center._mpc_, 53, _RND)) for d in disks]
    others = [i for i in range(len(disks)) if i != ai.root_index]
    outside = [i for i in others if statuses[i] == "out"]
    on_circle = [i for i in others if statuses[i] == "circle"]
    if outside:
        witness = max(outside, key=lambda i: (modulus[i], -i))
        return Classification(
            "HasConjugateOutside", witness, modulus[witness], statuses
        )
    if on_circle:
        witness = on_circle[0]
        return Classification("Salem", witness, modulus[witness], statuses)
    if not others:
        return Classification("PV", None, None, statuses)
    witness = max(others, key=lambda i: (modulus[i], -i))
    return Classification("PV", witness, modulus[witness], statuses)


# ---------------------------------------------------------------------------
# exact ring elements and fractional distances


@dataclass(frozen=True)
class ZThetaElement:
    """Integer coordinates in the power basis 1, theta, ..., theta^(s-1)."""

    coords: tuple[int, ...]

    @classmethod
    def from_int(cls, k: int, degree: int) -> "ZThetaElement":
        return cls((int(k),) + (0,) * (degree - 1))


def zt_mul_theta(
    x: ZThetaElement, poly: "Sequence[int] | AlgebraicInteger"
) -> ZThetaElement:
    """Exact coordinates of theta * x via the companion-matrix action."""
    p = poly.poly if isinstance(poly, AlgebraicInteger) else _as_int_poly(poly)
    row = _companion_row(p)
    if len(x.coords) != len(row):
        raise ValueError(f"expected {len(row)} coordinates, got {len(x.coords)}")
    return ZThetaElement(_times_theta(x.coords, row))


def _companion_row(p: Sequence[int]) -> tuple[int, ...]:
    """(b_s, ..., b_1) for p = x^s - b_1 x^(s-1) - ... - b_s: the
    coordinates of theta^s = b_1 theta^(s-1) + ... + b_s."""
    s = _poly_degree(p)
    return tuple(-p[s - i] for i in range(s))


def _times_theta(coords: tuple[int, ...], row: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates of theta * x from those of x, with ``row`` the
    ``_companion_row`` of theta's polynomial: the one companion step."""
    carry = coords[-1]
    new = [carry * row[0]]
    for i in range(1, len(row)):
        new.append(coords[i - 1] + carry * row[i])
    return tuple(new)


def _scaled_bracket(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(a, b, d) with lo = a/d, hi = b/d and d > 0 the least common
    denominator."""
    d = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d


def _zt_scaled(
    coords: Sequence[int], a: int, b: int, d: int
) -> tuple[int, int, int]:
    """Integers L <= H and S > 0 with [L/S, H/S] the interval Horner
    enclosure of sum coords[i] x^i over x in [a/d, b/d] (a <= b, d > 0)."""
    L = H = coords[-1]
    S = 1
    for c in reversed(coords[:-1]):
        p1, p2, p3, p4 = L * a, L * b, H * a, H * b
        S *= d
        c *= S
        L = min(p1, p2, p3, p4) + c
        H = max(p1, p2, p3, p4) + c
    return L, H, S


def qt_value_interval(
    nums: Sequence[int], den: int, lo: Fraction, hi: Fraction
) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of the Q(theta) value (sum nums[i] x^i)/den
    over x in [lo, hi] (lo <= hi, den > 0), by the interval Horner scheme."""
    L, H, S = _zt_scaled(nums, *_scaled_bracket(lo, hi))
    S *= den
    return Fraction(L, S), Fraction(H, S)


def zt_value_interval(
    x: ZThetaElement, ai: AlgebraicInteger, width_bits: int
) -> tuple[Fraction, Fraction]:
    """Exact rational enclosure of the real value of ``x`` at the root."""
    return qt_value_interval(x.coords, 1, *ai.real_bracket(width_bits))


class CertifiedDistance(NamedTuple):
    lo: Fraction
    hi: Fraction
    nearest: int | None

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2


def _dist_interval_to_integers(
    a: Fraction, b: Fraction
) -> tuple[Fraction, Fraction, int | None]:
    """Range of dist(., Z) over [a, b] (assumes b - a < 1/2), plus the nearest
    integer when it is unambiguous."""

    def dist(x: Fraction) -> Fraction:
        k = round(x)
        return abs(x - k)

    has_integer = math.ceil(a) <= math.floor(b)
    has_half = math.ceil(a - Fraction(1, 2)) <= math.floor(b - Fraction(1, 2))
    lo = Fraction(0) if has_integer else min(dist(a), dist(b))
    hi = Fraction(1, 2) if has_half else max(dist(a), dist(b))
    nearest = None
    if not has_half:
        nearest = round((a + b) / 2)
    elif has_integer:
        nearest = round((a + b) / 2)
    return lo, hi, nearest


def frac_dist(
    x: ZThetaElement,
    ai: AlgebraicInteger,
    target_err: Fraction = Fraction(1, 1024),
) -> CertifiedDistance:
    """Certified distance of the real value of ``x`` to the nearest integer.

    Precision escalates until the distance interval has width at most
    ``target_err`` (which must be at most 1/8).  Integer elements return an
    exact zero."""
    target = Fraction(target_err)
    if target > Fraction(1, 8):
        raise ValueError("target_err must be at most 1/8")
    if all(c == 0 for c in x.coords[1:]):
        k = x.coords[0]
        return CertifiedDistance(Fraction(0), Fraction(0), k)
    maxbits = max(abs(c) for c in x.coords).bit_length()
    bits = ai.degree * maxbits + 64
    while bits <= PRECISION_CAP_BITS:
        a, b = zt_value_interval(x, ai, bits)
        if b - a < Fraction(1, 4):
            lo, hi, nearest = _dist_interval_to_integers(a, b)
            if hi - lo <= target:
                return CertifiedDistance(lo, hi, nearest)
        bits *= 2
    raise PrecisionExhausted(
        "distance to the nearest integer not certified under the precision cap"
    )


# ---------------------------------------------------------------------------
# explicit constants


class PropAlgConstants(NamedTuple):
    alpha: "mp.mpf"
    beta: int
    delta1: Fraction
    s: int
    height: int
    theta2_index: int
    theta2_modulus: "mp.mpf"


def _ceil_log_ratio(ai: AlgebraicInteger, theta2_index: int) -> int:
    """ceil(s * log(theta) / log|theta_2|), certified.

    Exact integer ratios (both roots integers with theta^s a power of
    |theta_2|) are resolved algebraically; otherwise interval refinement
    separates the value from the nearest integer."""
    s = ai.degree
    p = ai.poly

    def exact_int(disk: RootDisk) -> int | None:
        if not disk.is_real:
            return None
        lo, hi = disk.real_interval()
        k = math.floor(hi)
        for cand in (k, k + 1):
            if lo <= cand <= hi and _poly_sign_scaled(p, cand, 1) == 0:
                return cand
        return None

    t_int = exact_int(ai.roots[ai.root_index])
    disk2 = ai.roots[theta2_index]
    t2_int = exact_int(disk2)
    if t2_int is not None:
        t2_int = abs(t2_int)
    if t_int is not None and t2_int is not None and t2_int >= 2:
        # is theta^s an exact power of |theta_2|?
        power = t_int**s
        k = 0
        acc = 1
        while acc < power:
            acc *= t2_int
            k += 1
        if acc == power:
            return k
    bits = max(ai.precision_bits, 64)
    while bits <= 2**14:
        disks = certify_roots(p, bits)
        w = bits + 32
        d1 = disks[ai.root_index]
        d2 = disks[theta2_index]
        t, r1, r2 = d1.center.real._mpf_, d1.radius._mpf_, d2.radius._mpf_
        m = libmp.mpc_abs(d2.center._mpc_, w, _RND)

        def ratio(a, b):  # s log(a) / log(b) at w bits
            num = libmp.mpf_mul_int(libmp.mpf_log(a, w, _RND), s, w, _RND)
            return libmp.mpf_div(num, libmp.mpf_log(b, w, _RND), w, _RND)

        val_lo = ratio(libmp.mpf_sub(t, r1, w, _RND), libmp.mpf_add(m, r2, w, _RND))
        val_hi = ratio(libmp.mpf_add(t, r1, w, _RND), libmp.mpf_sub(m, r2, w, _RND))
        f_lo = libmp.mpf_floor(val_lo, w, _RND)
        f_hi = libmp.mpf_floor(val_hi, w, _RND)
        if libmp.mpf_eq(f_lo, f_hi) and not libmp.mpf_eq(val_lo, f_lo):
            return int(libmp.to_int(f_hi)) + (0 if libmp.mpf_eq(val_hi, f_hi) else 1)
        bits *= 2
    raise PrecisionExhausted("cannot certify the ceiling of the log ratio")


def prop_alg_constants(
    ai: AlgebraicInteger, cap_bits: int = 2**14
) -> PropAlgConstants:
    """Explicit decay constants for a root with a conjugate outside the circle.

    delta1 = 1/(1 + s*H) exactly; beta = 1 + ceil(s log theta / log|theta_2|)
    with theta_2 the largest-modulus conjugate strictly outside the unit
    circle; alpha = delta1^2 / log(beta).  Raises ``WrongClass`` unless the
    classification is HasConjugateOutside.  Memoised per (ai, cap_bits)."""
    return _decay_constants(ai, cap_bits)


@lru_cache(maxsize=256)
def _decay_constants(ai: AlgebraicInteger, cap_bits: int) -> PropAlgConstants:
    cls = classify(ai, cap_bits)
    if cls.kind != "HasConjugateOutside":
        raise WrongClass(
            f"constants require a conjugate outside the unit circle, got {cls.kind}"
        )
    s = ai.degree
    H = ai.height
    delta1 = Fraction(1, 1 + s * H)
    theta2_index = cls.witness
    assert theta2_index is not None
    beta = 1 + _ceil_log_ratio(ai, theta2_index)
    w = max(ai.precision_bits, 64) + 32
    num = libmp.mpf_pow_int(libmp.from_int(delta1.numerator, w, _RND), 2, w, _RND)
    den = libmp.mpf_pow_int(libmp.from_int(delta1.denominator, w, _RND), 2, w, _RND)
    den = libmp.mpf_mul(den, libmp.mpf_log(libmp.from_int(beta), w, _RND), w, _RND)
    return PropAlgConstants(
        alpha=mp.make_mpf(libmp.mpf_div(num, den, w, _RND)),
        beta=beta,
        delta1=delta1,
        s=s,
        height=H,
        theta2_index=theta2_index,
        theta2_modulus=mp.make_mpf(
            libmp.mpc_abs(ai.roots[theta2_index].center._mpc_, w, _RND)
        ),
    )


def garsia_lower_bound(
    ai: AlgebraicInteger,
    conj_index: int,
    q_height: int,
    q_degree: int,
    cap_bits: int = 2**14,
) -> "mp.mpf":
    """Positive lower bound for |Q(theta_j)| over nonvanishing integer
    polynomials Q of the given height and degree, where theta_j is the root at
    ``conj_index``.

    The bound is  prod_{|t_j| != 1, j != conj} ||t_j| - 1|  divided by
    s^(s-2) * (prod_{|t_j| > 1, j != conj} |t_j|)^s * height^s; roots exactly
    on the unit circle are excluded by the certified status machinery."""
    if q_height < 1:
        raise ValueError("height must be at least 1 (Q must be nonzero)")
    s = ai.degree
    if not 0 <= q_degree <= s - 1:
        raise ValueError("degree of Q must lie in [0, s-1]")
    statuses, disks = _root_statuses(ai, cap_bits)
    w = max(ai.precision_bits, 64) + 32
    numerator = expanding = libmp.fone
    for j, (st, d) in enumerate(zip(statuses, disks)):
        if j == conj_index:
            continue
        # outward-rounded modulus bounds keep the result a true lower
        # bound: shrink every numerator term, grow the denominator
        lo, hi = (x._mpf_ for x in d.modulus_interval())
        if st == "in":
            term = libmp.mpf_sub(libmp.fone, hi, w, _RND)
        elif st == "out":
            term = libmp.mpf_sub(lo, libmp.fone, w, _RND)
            expanding = libmp.mpf_mul(expanding, hi, w, _RND)
        else:
            continue
        if libmp.mpf_sign(term) <= 0:
            raise PrecisionExhausted(
                "root disk too wide to separate its modulus from 1"
            )
        numerator = libmp.mpf_mul(numerator, term, w, _RND)
    denom = libmp.mpf_mul(
        libmp.mpf_pow_int(libmp.from_int(s, w, _RND), s - 2, w, _RND),
        libmp.mpf_pow_int(expanding, s, w, _RND), w, _RND,
    )
    denom = libmp.mpf_mul(
        denom, libmp.mpf_pow_int(libmp.from_int(q_height, w, _RND), s, w, _RND),
        w, _RND,
    )
    return mp.make_mpf(libmp.mpf_div(numerator, denom, w, _RND))
