"""Reference computations for the benchmark's correctness checks.

Everything here is written from the definitions and calls nothing in the
``subspectral`` package: words are expanded explicitly, twisted sums are
brute-force numpy sums with exact integer phase reduction, count-matrix
powers are exact integers, tile integrals and transform factors are
evaluated in mpmath from exact rational endpoints and phases.

Letters are 1-based and written as the characters ``'1'``..``'9'``.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import mpmath as mp
import numpy as np

TILE_PREC = 128  # bits of the tile integrals
TAIL_EPS = 1e-30  # the transform's tail stops once its factors are this close to 1

# ---------------------------------------------------------------------------
# words and count matrices


def _table(images: Sequence[str]) -> dict[int, str]:
    return {ord(str(b)): img for b, img in enumerate(images, start=1)}


def expand(images: Sequence[str], word: str, n: int) -> str:
    """The n-fold image of ``word`` under the substitution with these letter
    images."""
    table = _table(images)
    for _ in range(n):
        word = word.translate(table)
    return word


def power_images(images: Sequence[str], k: int) -> tuple[str, ...]:
    """Letter images of the k-th power of the substitution."""
    return tuple(expand(images, str(b), k) for b in range(1, len(images) + 1))


def count_matrix(images: Sequence[str]) -> list[list[int]]:
    """``M[b-1][a-1]`` = number of occurrences of letter a in the image of b."""
    m = len(images)
    return [[img.count(str(a)) for a in range(1, m + 1)] for img in images]


def _mat_mul(A: list[list[int]], B: list[list[int]]) -> list[list[int]]:
    return [
        [sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0]))]
        for i in range(len(A))
    ]


def max_row_sums(images: Sequence[str], n_max: int) -> list[int]:
    """Max row sum of the exact n-th count-matrix power for n = 1..n_max.

    Row b of the n-th power counts the letters of the n-fold image of b, so
    its sum bounds every twisted sum over that image, and the max row sum
    bounds the max-row-sum norm of the twisted transfer product."""
    M = count_matrix(images)
    P = M
    out = []
    for _ in range(n_max):
        out.append(max(sum(row) for row in P))
        P = _mat_mul(P, M)
    return out


def deepest_level(images: Sequence[str], budget: int) -> int:
    """Largest n whose n-fold letter images all have at most ``budget``
    letters."""
    n = 0
    while max(max_row_sums(images, n + 1)) <= budget:
        n += 1
    return n


def fixed_point(images: Sequence[str], length: int) -> str:
    """First ``length`` letters of the fixed point that starts with 1 (the
    image of 1 must start with 1)."""
    if not images[0].startswith("1"):
        raise ValueError("the image of 1 must start with 1")
    word = "1"
    table = _table(images)
    while len(word) < length:
        word = word.translate(table)
    return word[:length]


def letters(word: str) -> np.ndarray:
    return np.frombuffer(word.encode("ascii"), dtype=np.uint8) - ord("0")


# ---------------------------------------------------------------------------
# twisted sums


def twisted_sum(word_letters: np.ndarray, a: int, omega: Fraction) -> complex:
    """Sum of e^(-2 pi i omega j) over the 0-based positions j holding a.

    ``omega * j`` is reduced mod 1 in exact integer arithmetic before any
    rounding, and the terms are added by numpy's pairwise summation."""
    om = Fraction(omega) % 1
    p, q = om.numerator, om.denominator
    j = np.flatnonzero(word_letters == a)
    if p * max(len(word_letters), 1) < 2**62 and q < 2**53:
        x = ((p * j) % q) / q
    else:
        x = np.array([(p * int(t)) % q / q for t in j], dtype=float)
    return complex(np.exp(-2j * np.pi * x).sum())


# ---------------------------------------------------------------------------
# suspension flow tile walks


def tile_integral_sum(
    roof: Sequence[Fraction], word: str, a: int, omega: Fraction, R: Fraction
) -> tuple["mp.mpc", int]:
    """Sum over the tiles of letter a that end inside [0, R] of the exact
    integral of e^(-2 pi i omega t) over the tile, and the number of tiles
    of any letter that end inside [0, R].

    Tiles follow ``word`` from time 0, tile c lasting ``roof[c-1]``.  Tile
    endpoints are exact rationals; each phase omega * t is reduced mod 1
    exactly and only then evaluated in mpmath at ``TILE_PREC`` bits."""
    om = Fraction(omega)
    with mp.workprec(TILE_PREC):
        acc = mp.mpc(0)
        t = Fraction(0)
        denom = -2j * mp.pi * (mp.mpf(om.numerator) / om.denominator)
        for tiles, ch in enumerate(word):
            c = ord(ch) - ord("0")
            end = t + roof[c - 1]
            if end > R:
                return +acc, tiles
            if c == a:
                f_end = (om * end) % 1
                f_start = (om * t) % 1
                e_end = mp.expjpi(-2 * mp.mpf(f_end.numerator) / f_end.denominator)
                e_start = mp.expjpi(
                    -2 * mp.mpf(f_start.numerator) / f_start.denominator
                )
                acc += (e_end - e_start) / denom
            t = end
    raise ValueError("the word ends before the horizon")


# ---------------------------------------------------------------------------
# powers of an algebraic number and transform products


def real_root(coeffs: Sequence[int], guess: float, prec: int) -> "mp.mpf":
    """Real root of the polynomial (descending integer coefficients) near
    ``guess``, by Newton's method at ``prec`` bits."""
    with mp.workprec(prec + 20):
        root = mp.findroot(lambda x: mp.polyval(list(coeffs), x), mp.mpf(guess))
    return root


def scaled_powers(t: Fraction, theta: "mp.mpf", count: int, prec: int) -> list:
    """t * theta^k for k < count at ``prec`` bits."""
    with mp.workprec(prec):
        x = mp.mpf(t.numerator) / t.denominator
        th = +theta
        out = []
        for _ in range(count):
            out.append(x)
            x = x * th
    return out


def nearest_split(values: Sequence, prec: int) -> list[tuple[int, "mp.mpf"]]:
    """(nearest integer, signed remainder) of each value."""
    with mp.workprec(prec):
        out = []
        for x in values:
            k = int(mp.floor(x + mp.mpf(1) / 2))
            out.append((k, x - k))
    return out


def transform_factor(x: "mp.mpf", one_minus_2p: "mp.mpf") -> "mp.mpc":
    """cos(2 pi x) + i (1-2p) sin(2 pi x) at the working precision."""
    return mp.mpc(mp.cospi(2 * x), one_minus_2p * mp.sinpi(2 * x))


def bernoulli_scan_values(
    powers: Sequence,
    theta: "mp.mpf",
    t: Fraction,
    p: Fraction,
    prec: int,
) -> list["mp.mpc"]:
    """Transform of the two-atom measure with ratio 1/theta and bias p at
    xi = t theta^N, for N = 0..len(powers)-1.

    The value at xi is the infinite product over n >= 0 of the factors at
    xi / theta^n: the factors at t theta^k for k = 0..N times the tail at
    t / theta^j for j >= 1, taken until its factors differ from 1 by less
    than ``TAIL_EPS``."""
    with mp.workprec(prec):
        omp = 1 - 2 * (mp.mpf(p.numerator) / p.denominator)
        tail = mp.mpc(1)
        x = mp.mpf(t.numerator) / t.denominator
        while True:
            x = x / theta
            if 2 * mp.pi * x < TAIL_EPS:
                break
            tail *= transform_factor(x, omp)
        out = []
        prefix = mp.mpc(1)
        for xk in powers:
            prefix *= transform_factor(xk, omp)
            out.append(prefix * tail)
    return out
