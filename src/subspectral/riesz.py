"""Transfer matrices and twisted exponential sums over substituted words.

The twisted sum of a word ``v`` at frequency ``omega`` adds one unit-modulus
phase ``e^(-2 pi i omega j)`` per occurrence of a chosen letter at position
``j``.  Under a substitution these sums obey an exact matrix recursion across
levels, so quantities attached to words of astronomical length remain
computable without ever expanding the words.

Numerical policy: transfer matrices and their products are computed on
Python integers.  A complex value z is held as an integer pair (x, y) with
z ~ (x + i y) 2^-P, where P is ``precision_bits`` (default 106).  Every
phase is the frequency times an exact integer (or, with a roof, an exact
rational over the roof's common denominator) cumulative length, reduced
mod 1 on integers *before* any rounding; its cosine and sine are evaluated
once at P + 16 bits and each part is rounded once to the nearest multiple
of 2^-P.  A product step multiplies integer pairs exactly and rounds each
entry once; a logged norm is the max row sum of ``isqrt(x^2 + y^2)``,
converted once to a correctly rounded float.  The kernel reads no global
precision state, so concurrent threads get identical results.

Each logged norm carries an explicit error bound (``norm_errors``).  A phase
is off by at most one unit 2^-P in modulus, so the level-k matrix is off by
at most S^T units entrywise (S the count matrix), and |M_k| <= S^T for the
exact matrices.  Writing E_n for the entrywise error of the depth-n product
in units, one product step gives

    E_n <= S^T E_(n-1) + ceil(S^T E_(n-1) / 2^P) + (S^T)^n + 1,    E_1 = S^T,

which depends on the substitution, the depth and P only, and is propagated
in integers.  The norm's bound adds one unit per entry of a row (the floor
of ``isqrt``) and one ulp of the returned float.  Values handed out as
``mpc`` (``TransferMatrix.entries``, ``TwistedProduct.matrix`` and the
``phi_*`` results) are the exact dyadic values of the integer pairs.

Level-word and Birkhoff sums are rows of the same integer products
(``_twisted_row``, with its own bound), so no global precision is read or
set on their way either.

Transfer matrices and prefix products (with their logged norms) are memoised
per substitution, level or depth, exact rational frequency, roof and
precision in bounded LRU caches that hold integers only, so sweeps that
revisit a frequency build each factor and each prefix once.  A memoised
result is identical to a freshly computed one: the keys are exact and the
arithmetic is exact up to the counted roundings.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterable, Sequence

import mpmath as mp
import numpy as np
from mpmath import libmp

from .algebraic import _context, _mpf_to_fraction, _public
from .errors import BudgetExceeded
from .substitution import (
    Substitution,
    Word,
    _check_letters,
    _count_power,
    _mat_mul,
    _transpose,
    as_word,
    lengths_at,
    parse_word,
    perron_data,
    substitution_matrix,
    tiling_lengths_at,
)

DEFAULT_PRECISION_BITS = 106  # double-double equivalent
_GUARD_BITS = 16  # extra bits for each cosine and sine before rounding to 2^-P
_STRIDE = 64  # a cold prefix or error-bound lookup recurses at most this many depths


# ---------------------------------------------------------------------------
# exact scalar plumbing


def as_exact(x) -> Fraction:
    """Exact rational value of ``x`` (int, Fraction, float, or mpf).

    Finite floats and mpfs are binary rationals, so the conversion is
    lossless; non-finite ones (inf, -inf, nan) are refused with
    ``ValueError``."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError("frequency/roof values must be finite")
        return Fraction(x)
    if isinstance(x, mp.mpf):
        return _mpf_to_fraction(x)
    raise TypeError(f"cannot interpret {type(x).__name__} as an exact rational")


def _phase(r: int, q: int, bits: int) -> tuple[int, int]:
    """e^(-2 pi i r/q) for 0 <= r < q as an integer pair at scale 2^-bits,
    each part within half a unit (plus 2^-10 of evaluation error)."""
    if r == 0:
        return 1 << bits, 0
    wp = bits + _GUARD_BITS
    # cos and sin of pi x for x = 2r/q, floored at scale 2^-wp
    x = libmp.from_man_exp((r << (wp + 1)) // q, -wp)
    c, s = libmp.mpf_cos_sin_pi(x, wp)
    # a floor at scale 2^-(bits+1), then halving up: round to nearest
    x = (libmp.to_fixed(c, bits + 1) + 1) >> 1
    y = (libmp.to_fixed(s, bits + 1) + 1) >> 1
    return x, -y


def _to_float(units: int, bits: int) -> float:
    """units * 2^-bits, correctly rounded; inf beyond the float range."""
    try:
        return units / (1 << bits)
    except OverflowError:
        return math.inf


def _to_mpc(z: tuple[int, int], bits: int) -> "mp.mpc":
    """The exact dyadic value of an integer pair at scale 2^-bits."""
    return mp.make_mpc(
        (libmp.from_man_exp(z[0], -bits), libmp.from_man_exp(z[1], -bits))
    )


def _mpc_matrix(A, bits: int) -> tuple[tuple["mp.mpc", ...], ...]:
    return tuple(tuple(_to_mpc(z, bits) for z in row) for row in A)


# ---------------------------------------------------------------------------
# domain types


@dataclass(frozen=True)
class TransferMatrix:
    """One level of the exact recursion for twisted sums.

    ``entries[b-1][c-1]`` is a sum of unit-modulus phases, one per occurrence
    of letter ``c`` in the image of letter ``b``; the phase of each term is
    the frequency times the cumulative expanded length of the preceding part
    of the image.  At ``omega = 0`` the matrix is exactly the transpose of
    the substitution matrix.  ``roof`` switches the cumulative lengths from
    letter counts to weighted (tiling) lengths.
    """

    n: int
    omega: Fraction
    entries: tuple[tuple["mp.mpc", ...], ...]
    roof: tuple[Fraction, ...] | None
    precision_bits: int

    @property
    def m(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class TwistedProduct:
    """Left-to-right product of transfer matrices for levels k .. k+n-1.

    Column ``a-1`` of ``matrix`` holds the twisted sums of the level-``n``
    images: ``matrix[b-1][a-1]`` equals the twisted sum counting letter ``a``
    over the ``n``-fold image of letter ``b`` (for ``k = 0``).
    ``per_step_norms`` logs the max-row-sum norm after each factor, and
    ``norm_errors[j]`` bounds the distance of ``per_step_norms[j]`` from the
    norm of the exact product (see the module's numerical policy).
    """

    n: int
    k: int
    omega: Fraction
    matrix: tuple[tuple["mp.mpc", ...], ...]
    per_step_norms: tuple[float, ...]
    norm_errors: tuple[float, ...]
    roof: tuple[Fraction, ...] | None
    precision_bits: int

    @property
    def m(self) -> int:
        return len(self.matrix)


# ---------------------------------------------------------------------------
# integer kernel: matrices of (x, y) pairs at scale 2^-bits


def _mul(A, B, bits: int):
    """A times B, each entry summed exactly and rounded once to nearest."""
    half = 1 << (bits - 1)
    cols = tuple(zip(*B))
    out = []
    for row in A:
        new = []
        for col in cols:
            re = im = 0
            for (a, b), (c, d) in zip(row, col):
                re += a * c - b * d
                im += a * d + b * c
            new.append(((re + half) >> bits, (im + half) >> bits))
        out.append(tuple(new))
    return tuple(out)


@lru_cache(maxsize=4096)
def _error_units(zeta: Substitution, n: int, bits: int):
    """Entrywise bound E_n, in units 2^-bits, on the error of a depth-n
    product (any shift, frequency or roof), and (S^T)^n, the transpose of
    the memoised count-matrix power; the recursion of the numerical
    policy.  A cold depth first fills depth n - ``_STRIDE``, so the step
    recursion below stays within ``_STRIDE`` levels and a cold depth-n call
    nests about n / ``_STRIDE`` + ``_STRIDE`` calls deep."""
    T = _transpose(_count_power(zeta, n))
    if n == 1:
        return T, T
    if n > _STRIDE:
        _error_units(zeta, n - _STRIDE, bits)
    St = _transpose(_count_power(zeta, 1))
    E = _error_units(zeta, n - 1, bits)[0]
    up = (1 << bits) - 1
    E = tuple(
        tuple(f + ((f + up) >> bits) + t + 1 for f, t in zip(f_row, t_row))
        for f_row, t_row in zip(_mat_mul(St, E), T)
    )
    return E, T


# ---------------------------------------------------------------------------
# level structure: which letter sits where in each image, with cumulative
# expanded lengths (shared by all frequencies at a given level)


def _validate_roof(zeta: Substitution, roof) -> tuple[Fraction, ...]:
    r = tuple(as_exact(x) for x in roof)
    if len(r) != zeta.m:
        raise ValueError(f"roof must have {zeta.m} entries, got {len(r)}")
    if any(x <= 0 for x in r):
        raise ValueError("roof values must be strictly positive")
    return r


def _scaled_lengths(
    zeta: Substitution, n: int, roof: tuple[Fraction, ...] | None
) -> tuple[int, Sequence[int]]:
    """A common denominator D of the level-n lengths (1 without a roof) and
    D times the level-n length of each letter."""
    if roof is None:
        return 1, lengths_at(zeta, n)
    den = math.lcm(*(r.denominator for r in roof))
    return den, [int(x * den) for x in tiling_lengths_at(zeta, n, roof)]


@lru_cache(maxsize=4096)
def _level_structure(
    zeta: Substitution, n: int, roof: tuple[Fraction, ...] | None
) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """A common denominator D of the level-n lengths (1 without a roof) and,
    per letter b, a tuple of (c, D times the cumulative length of the image
    prefix strictly before this occurrence)."""
    den, lens = _scaled_lengths(zeta, n, roof)
    return den, tuple(
        tuple(zip(w, accumulate((lens[c - 1] for c in w), initial=0)))
        for w in zeta.images
    )


def _phase_row(
    m: int, occ: Iterable[tuple[int, int]], p: int, q: int, bits: int
) -> tuple[tuple[int, int], ...]:
    """Per letter c, the sum of e^(-2 pi i p t / q) over the pairs (c, t) of
    ``occ``, as integer pairs at scale 2^-bits."""
    re = [0] * m
    im = [0] * m
    for c, t in occ:
        x, y = _phase(p * t % q, q, bits)
        re[c - 1] += x
        im[c - 1] += y
    return tuple(zip(re, im))


# ---------------------------------------------------------------------------
# operations


def phi_direct(
    v: Word | Sequence[int] | str,
    a: int,
    omega,
    budget: int = 1_000_000,
) -> complex:
    """Brute-force twisted sum over an explicit word: one term
    ``e^(-2 pi i omega j)`` per position ``j`` (0-based) holding letter ``a``.

    Phases are reduced mod 1 with exact integer arithmetic, so the result is
    accurate to ~1 ulp per term even for very long words."""
    letters = np.fromiter(
        parse_word(v) if isinstance(v, str) else v, dtype=np.int64
    )
    if letters.size > budget:
        raise BudgetExceeded(
            f"word of length {letters.size} exceeds the expansion budget {budget}"
        )
    om = as_exact(omega) % 1
    p, q = om.numerator, om.denominator
    j = np.flatnonzero(letters == a)
    if q < 2**53 and p * letters.size < 2**63:
        # r < q < 2**53 is exact in float64, so r / q is the correctly
        # rounded quotient, as Python's int / int is
        x = (p * j) % q / q
    else:
        x = np.array([(p * t) % q / q for t in j.tolist()], dtype=float)
    return complex(np.exp(-2j * np.pi * x).sum())


def phi_suspension_direct(
    v: Word | Sequence[int] | str,
    roof: Sequence,
    a: int,
    omega,
    budget: int = 1_000_000,
) -> complex:
    """Brute-force weighted twisted sum: the phase at position ``j`` uses the
    weighted length of the prefix *including* position ``j`` (the natural
    convention when letters carry durations)."""
    w = as_word(v)
    if len(w) > budget:
        raise BudgetExceeded(
            f"word of length {len(w)} exceeds the expansion budget {budget}"
        )
    m = max(w) if w else 0
    r = tuple(as_exact(x) for x in roof)
    if len(r) < m:
        raise ValueError("roof shorter than the alphabet of the word")
    if any(x <= 0 for x in r):
        raise ValueError("roof values must be strictly positive")
    om = as_exact(omega)
    acc = 0j
    cum = Fraction(0)
    for letter in w:
        cum += r[letter - 1]
        if letter == a:
            phase = (om * cum) % 1
            acc += cmath.exp(-2j * cmath.pi * (phase.numerator / phase.denominator))
    return acc


def transfer_matrix(
    zeta: Substitution,
    n: int,
    omega,
    roof: Sequence | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> TransferMatrix:
    """Level-``n`` transfer matrix at the given frequency.

    Entry (b, c) sums one unit-modulus phase per occurrence of ``c`` in the
    image of ``b``; each phase is the frequency times the exact cumulative
    level-``n`` expanded length of the image prefix before that occurrence.
    """
    if n < 0:
        raise ValueError("level must be nonnegative")
    om = as_exact(omega)
    rf = None if roof is None else _validate_roof(zeta, roof)
    M = _transfer_matrix(zeta, n, om, rf, precision_bits)
    return TransferMatrix(
        n=n,
        omega=om,
        entries=_mpc_matrix(M, precision_bits),
        roof=rf,
        precision_bits=precision_bits,
    )


@lru_cache(maxsize=4096)
def _transfer_matrix(
    zeta: Substitution,
    n: int,
    om: Fraction,
    rf: tuple[Fraction, ...] | None,
    precision_bits: int,
) -> tuple[tuple[tuple[int, int], ...], ...]:
    den, structure = _level_structure(zeta, n, rf)
    p, q = om.numerator, om.denominator * den
    return tuple(_phase_row(zeta.m, occ, p, q, precision_bits) for occ in structure)


def shifted_product(
    zeta: Substitution,
    k: int,
    n: int,
    omega,
    roof: Sequence | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> TwistedProduct:
    """Product of the ``n`` transfer matrices for levels k .. k+n-1, newest
    level on the left."""
    if n < 1:
        raise ValueError("depth must be at least 1")
    if k < 0:
        raise ValueError("shift must be nonnegative")
    om = as_exact(omega)
    rf = None if roof is None else _validate_roof(zeta, roof)
    norms = []
    errors = []
    # shallowest depth first, so that each cache miss recurses one level only
    for depth in range(1, n + 1):
        A, norm, err = _prefix_product(zeta, k, depth, om, rf, precision_bits)
        norms.append(norm)
        errors.append(err)
    return TwistedProduct(
        n=n,
        k=k,
        omega=om,
        matrix=_mpc_matrix(A, precision_bits),
        per_step_norms=tuple(norms),
        norm_errors=tuple(errors),
        roof=rf,
        precision_bits=precision_bits,
    )


@lru_cache(maxsize=4096)
def _prefix_product(
    zeta: Substitution,
    k: int,
    n: int,
    om: Fraction,
    rf: tuple[Fraction, ...] | None,
    precision_bits: int,
) -> tuple[tuple[tuple[tuple[int, int], ...], ...], float, float]:
    """Depth-``n`` product for levels k .. k+n-1, its max-row-sum norm and
    the norm's error bound, one factor on top of the memoised depth-``n-1``
    product."""
    A = _transfer_matrix(zeta, k + n - 1, om, rf, precision_bits)
    if n > 1:
        prev = _prefix_product(zeta, k, n - 1, om, rf, precision_bits)[0]
        A = _mul(A, prev, precision_bits)
    units = max(sum(math.isqrt(x * x + y * y) for x, y in row) for row in A)
    norm = _to_float(units, precision_bits)
    slack = max(map(sum, _error_units(zeta, n, precision_bits)[0])) + zeta.m
    err = math.nextafter(_to_float(slack, precision_bits), math.inf) + math.ulp(norm)
    return A, norm, math.nextafter(err, math.inf)


def _product(
    zeta: Substitution,
    n: int,
    om: Fraction,
    rf: tuple[Fraction, ...] | None,
    precision_bits: int,
) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The depth-``n`` product for levels n-1 .. 0 as integer pairs, read
    from the memo; a cold miss is filled in strides of ``_STRIDE`` depths."""
    for depth in range(1 + (n - 1) % _STRIDE, n + 1, _STRIDE):
        A = _prefix_product(zeta, 0, depth, om, rf, precision_bits)[0]
    return A


def _twisted_row(
    zeta: Substitution,
    pieces: Iterable[tuple[Word, int, Fraction | int]],
    om: Fraction,
    rf: tuple[Fraction, ...] | None,
    precision_bits: int,
) -> list[tuple[int, int]]:
    """Twisted sums of the level-j images of the pieces (w, j, offset),
    added up, for every letter a at once, as integer pairs at scale 2^-P.

    A letter c of w at the exact expanded position t (the offset, a multiple
    of 1/D, plus the level-j length before it) adds e^(-2 pi i omega t) to
    entry c of the piece's row; at j > 0 one rounded ``_mul`` takes the row
    through the depth-j product.  Entry a of a piece is within n_a units of
    the exact sum at level 0 (n_c counting c in w), within
    sum_c n_c (T[c][a] + E[c][a] + ceil(E[c][a] / 2^P)) + 1 units at level j,
    (E, T) = ``_error_units(zeta, j, P)``; the pieces' bounds add up."""
    total = [(0, 0)] * zeta.m
    for w, level, offset in pieces:
        if not w:
            continue
        den, lens = _scaled_lengths(zeta, level, rf)
        p, q = om.numerator, om.denominator * den
        t = accumulate((lens[c - 1] for c in w), initial=int(offset * den))
        row = _phase_row(zeta.m, zip(w, t), p, q, precision_bits)
        if level:
            P = _product(zeta, level, om, rf, precision_bits)
            row = _mul((row,), P, precision_bits)[0]
        total = [(x + u, y + v) for (x, y), (u, v) in zip(total, row)]
    return total


def riesz_product(
    zeta: Substitution,
    n: int,
    omega,
    roof: Sequence | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> TwistedProduct:
    """Product of the first ``n`` transfer matrices (levels n-1 down to 0).

    Column ``a-1`` collects the twisted sums of every letter's ``n``-fold
    image with respect to letter ``a``."""
    return shifted_product(zeta, 0, n, omega, roof, precision_bits)


def phi_recursive(
    zeta: Substitution,
    a: int,
    b: int,
    n: int,
    omega,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> "mp.mpc":
    """Twisted sum of the ``n``-fold image of ``b`` counting letter ``a``,
    computed through the matrix recursion (never expands the word)."""
    _check_letters(zeta, (a, b))
    if n < 0:
        raise ValueError("level must be nonnegative")
    if n == 0:
        return _to_mpc((int(a == b), 0), 0)
    z = _product(zeta, n, as_exact(omega), None, precision_bits)[b - 1][a - 1]
    return _to_mpc(z, precision_bits)


def phi_suspension(
    zeta: Substitution,
    roof: Sequence,
    a: int,
    b: int,
    n: int,
    omega,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> "mp.mpc":
    """Weighted twisted sum of the ``n``-fold image of ``b`` counting letter
    ``a``, phases accumulated by weighted prefix length *including* the
    current letter.

    With all weights equal to 1 this equals the unweighted sum times
    ``e^(-2 pi i omega)`` (the inclusive convention shifts every phase by one
    step)."""
    _check_letters(zeta, (a, b))
    if n < 0:
        raise ValueError("level must be nonnegative")
    rf = _validate_roof(zeta, roof)
    om = as_exact(omega)
    ph = om * rf[a - 1] % 1
    head = _phase(ph.numerator, ph.denominator, precision_bits)
    if n == 0:
        return _to_mpc(head if a == b else (0, 0), precision_bits)
    z = _product(zeta, n, om, rf, precision_bits)[b - 1][a - 1]
    return _to_mpc(_mul(((head,),), ((z,),), precision_bits)[0][0], precision_bits)


def phi_of_level_word(
    zeta: Substitution,
    w: Word | Sequence[int] | str,
    level: int,
    a: int,
    omega,
    roof: Sequence | None = None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> "mp.mpc":
    """Twisted sum of the level-``level`` image of an arbitrary word ``w``:
    the concatenation rule, each letter's column shifted by the frequency
    times the exact expanded length before it, as the row of the one piece
    ``(w, level, offset)``.  The offset is 0, or ``roof[a]`` under a roof,
    so that phases count the weighted length *including* the current
    letter, as in ``phi_suspension``."""
    word = as_word(w)
    _check_letters(zeta, (a, *word))
    if level < 0:
        raise ValueError("level must be nonnegative")
    om = as_exact(omega)
    rf = None if roof is None else _validate_roof(zeta, roof)
    offset = 0 if rf is None else rf[a - 1]
    row = _twisted_row(zeta, [(word, level, offset)], om, rf, precision_bits)
    return _to_mpc(row[a - 1], precision_bits)


def riesz_density(
    zeta: Substitution,
    n: int,
    omega,
    pd=None,
    precision_bits: int = DEFAULT_PRECISION_BITS,
) -> tuple[tuple["mp.mpc", ...], ...]:
    """Finite-depth spectral density matrix at the given frequency.

    Entry (a, b) is the geometric-normalization of the Gram sum of twisted
    sums of all level-``n`` images: Sum_j phi_a(image_n(j)) *
    conj(phi_b(image_n(j))), divided by theta^n and by the product of the
    frequency-vector and length-vector normalizers, computed at
    ``precision_bits`` in a private context.  Always Hermitian and positive
    semidefinite (it is a conjugated Gram matrix)."""
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if pd is None:
        pd = perron_data(substitution_matrix(zeta))
    om = as_exact(omega)
    m = zeta.m
    ctx = _context(precision_bits)
    if n == 0:
        P = tuple(tuple(ctx.mpc(int(i == j)) for j in range(m)) for i in range(m))
    else:
        P = tuple(
            tuple(ctx.convert(z) for z in row)
            for row in riesz_product(zeta, n, om, None, precision_bits).matrix
        )
    theta = ctx.mpf(pd.theta)
    scale = 1 / (ctx.fsum(pd.r_vec) * ctx.fsum(pd.l_vec) * theta**n)
    return tuple(
        tuple(
            _public(ctx.fsum(P[j][aa] * ctx.conj(P[j][bb]) for j in range(m)) * scale)
            for bb in range(m)
        )
        for aa in range(m)
    )
