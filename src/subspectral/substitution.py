"""Substitution combinatorics.

Letters are integers ``1..m``.  Words are tuples of letters; every public
function also accepts digit strings like ``"1222"`` for alphabets with at most
nine letters (and comma-separated strings such as ``"1,12,3"`` otherwise).

The module provides the substitution matrix, primitivity with a witnessing
power, length/population vectors computed with exact big integers, certified
Perron-Frobenius data, return-word search, the prefix-suffix numeration of
fixed-point windows, and an aperiodicity heuristic.

Powers of the count matrix S exist once, in ``_count_power``: an exact,
memoised S^n built by halving, S^n = S^ceil(n/2) S^floor(n/2), so a cold
depth-n power costs about log2(n) products and recurses as deep.  The
expanded lengths |zeta^n(b)| (``lengths_at``), the roof-weighted lengths
(``tiling_lengths_at``) and the S^T domination behind the transfer-product
error bounds of ``riesz`` all read it.

Letters are read with ``operator.index`` (1.9 is refused, not truncated),
and a new ``Substitution`` range-checks each image with ``min``/``max``.
``Substitution.apply`` validates its letters; the package's own expansions
go through the unchecked ``Substitution._expand``.

The canonical fixed point u = zeta^k(u) lives in ``_fixed_point``: for the
32 latest substitutions, zeta^k and the longest prefix of u read so far,
which ``fixed_point_prefix`` slices, or grows for a longer request.  Every
orbit reader in the package reads it; the memo only stores longer words.

The one return-word power search is ``return_word_power``: the smallest p
with v + c inside every zeta^p(b).  It refuses (``BudgetExceeded``) before
building a longest image of more than ``_EXPANSION_BUDGET`` = 10^7 letters.
"""

from __future__ import annotations

import operator
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

import mpmath as mp

from .algebraic import _mpf_to_fraction, _poly_sign_scaled, _RootBisection
from .errors import (
    BudgetExceeded,
    ConfigError,
    NotFound,
    NotInLanguage,
    NotPrimitive,
)

Word = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]

__all__ = [
    "Word",
    "Matrix",
    "Substitution",
    "PerronData",
    "PrimitivityResult",
    "ReturnWord",
    "PrefixSuffixDecomposition",
    "AperiodicityVerdict",
    "parse_word",
    "format_word",
    "as_word",
    "substitution_matrix",
    "char_poly",
    "is_primitive",
    "iterate_word",
    "lengths_at",
    "tiling_lengths_at",
    "abelianization",
    "tiling_length",
    "perron_data",
    "find_return_word",
    "return_word_power",
    "prefix_suffix_decomposition",
    "is_aperiodic_heuristic",
    "fixed_point_letter",
    "fixed_point_prefix",
]


# ---------------------------------------------------------------------------
# words


def parse_word(text: str) -> Word:
    """Parse ``"1222"`` (digits) or ``"1,12,3"`` (comma separated) into a word."""
    text = text.strip()
    if not text:
        return ()
    if "," in text:
        return tuple(int(part) for part in text.split(","))
    return tuple(int(ch) for ch in text)


def format_word(word: Sequence[int]) -> str:
    """Inverse of :func:`parse_word` (digits when all letters are single-digit)."""
    if any(a > 9 for a in word):
        return ",".join(str(a) for a in word)
    return "".join(str(a) for a in word)


def as_word(w: str | Sequence[int]) -> Word:
    """Normalize a string or integer sequence into a word tuple."""
    if isinstance(w, str):
        return parse_word(w)
    return tuple(map(operator.index, w))


def _searchable(word: Word) -> bytes | Word:
    """A word as bytes when every letter fits in one byte, for the fast
    substring search of ``_find``; otherwise the word itself."""
    try:
        return bytes(word)
    except ValueError:
        return word


def _find(hay: bytes | Word, needle: bytes | Word) -> int:
    """First position of ``needle`` in ``hay`` (both from ``_searchable``),
    or -1."""
    if isinstance(hay, bytes) and isinstance(needle, bytes):
        return hay.find(needle)
    hay, needle = tuple(hay), tuple(needle)
    n = len(needle)
    for i in range(len(hay) - n + 1):
        if hay[i : i + n] == needle:
            return i
    return -1


# ---------------------------------------------------------------------------
# the substitution itself


@dataclass(frozen=True)
class Substitution:
    """A map sending each letter ``1..m`` to a nonempty word over ``1..m``."""

    m: int
    images: tuple[Word, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.m, int) or self.m < 1:
            raise ConfigError(f"alphabet size must be a positive integer, got {self.m!r}")
        images = tuple(as_word(im) for im in self.images)
        object.__setattr__(self, "images", images)
        if len(images) != self.m:
            raise ConfigError(f"expected {self.m} images, got {len(images)}")
        for j, im in enumerate(images, start=1):
            if not im:
                raise ConfigError(f"image of letter {j} is empty")
            if not (1 <= min(im) and max(im) <= self.m):
                bad = next(a for a in im if not 1 <= a <= self.m)
                raise ConfigError(
                    f"letter {bad} in image of {j} lies outside 1..{self.m}"
                )

    # -- constructors

    @classmethod
    def from_images(
        cls, images: Iterable[str | Sequence[int]], m: int | None = None
    ) -> "Substitution":
        imgs = tuple(as_word(im) for im in images)
        return cls(len(imgs) if m is None else m, imgs)

    @classmethod
    def from_config(cls, config: dict) -> "Substitution":
        """Build from ``{"alphabet": m, "images": ["1222", "1"]}``."""
        if not isinstance(config, dict):
            raise ConfigError("substitution config must be a mapping")
        try:
            m = int(config["alphabet"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"missing or invalid 'alphabet' field: {exc}") from exc
        images = config.get("images")
        if not isinstance(images, (list, tuple)):
            raise ConfigError("'images' must be a list of words")
        try:
            return cls(m, tuple(as_word(im) for im in images))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid image word: {exc}") from exc

    # -- basic actions

    def image(self, a: int) -> Word:
        return self.images[a - 1]

    def apply(self, word: str | Sequence[int]) -> Word:
        """One substitution step applied to a word (concatenation of images);
        ``ValueError`` for a letter outside ``1..m``."""
        w = as_word(word)
        if w and not (1 <= min(w) and max(w) <= self.m):
            bad = next(a for a in w if not 1 <= a <= self.m)
            raise ValueError(f"letter {bad} outside 1..{self.m}")
        return self._expand(w)

    def _expand(self, word: Sequence[int]) -> Word:
        """``apply`` without the letter check, for words over ``1..m`` that
        the package built itself."""
        images = self.images
        out: list[int] = []
        for a in word:
            out.extend(images[a - 1])
        return tuple(out)

    def power(self, k: int) -> "Substitution":
        """The substitution iterated ``k`` times, as a substitution."""
        if k < 1:
            raise ValueError(f"power must be >= 1, got {k}")
        images = self.images
        for _ in range(k - 1):
            images = tuple(self._expand(im) for im in images)
        return Substitution(self.m, images)


# ---------------------------------------------------------------------------
# exact integer linear algebra helpers (matrices as tuples of row tuples)


def _as_matrix(S: Sequence[Sequence[int]]) -> Matrix:
    M = tuple(tuple(int(x) for x in row) for row in S)
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix must be square")
    if any(x < 0 for row in M for x in row):
        raise ValueError("matrix entries must be nonnegative")
    return M


def _mat_mul(A: Matrix, B: Matrix) -> Matrix:
    Bc = tuple(zip(*B))
    return tuple(
        tuple(sum(a * b for a, b in zip(row, col)) for col in Bc) for row in A
    )


def _transpose(A: Matrix) -> Matrix:
    return tuple(zip(*A))


def substitution_matrix(zeta: Substitution) -> Matrix:
    """Matrix ``S`` with ``S[i][j]`` = number of occurrences of ``i+1`` in the image of ``j+1``."""
    m = zeta.m
    return tuple(
        tuple(zeta.images[j].count(i + 1) for j in range(m)) for i in range(m)
    )


def char_poly(S: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Exact characteristic polynomial of an integer matrix.

    Returns coefficients ``(c0, ..., cm)`` of ``det(xI - S) = sum c_k x^k``
    (monic, ``cm = 1``), computed with the Faddeev-LeVerrier recursion over
    exact rationals.
    """
    M = tuple(tuple(Fraction(int(x)) for x in row) for row in S)
    m = len(M)

    def add_scaled_identity(A, c):
        return tuple(
            tuple(A[i][j] + (c if i == j else 0) for j in range(m)) for i in range(m)
        )

    def trace(A):
        return sum(A[i][i] for i in range(m))

    coeffs: list[Fraction] = [Fraction(0)] * (m + 1)
    coeffs[m] = Fraction(1)
    Mk = M
    coeffs[m - 1] = -trace(Mk)
    for k in range(2, m + 1):
        Mk = _mat_mul(M, add_scaled_identity(Mk, coeffs[m - k + 1]))
        coeffs[m - k] = -trace(Mk) / k
    out = []
    for c in coeffs:
        if c.denominator != 1:
            raise ArithmeticError("characteristic polynomial must have integer coefficients")
        out.append(int(c))
    return tuple(out)


class PrimitivityResult(NamedTuple):
    primitive: bool
    power: int | None


def is_primitive(S: Sequence[Sequence[int]]) -> PrimitivityResult:
    """Whether some power of ``S`` is entrywise strictly positive.

    Checks powers ``n = 1 .. (m-1)*m + 1`` and reports the smallest witnessing
    power; beyond that bound no power can become positive.
    """
    M = _as_matrix(S)
    m = len(M)
    B = tuple(tuple(x > 0 for x in row) for row in M)
    P = B
    bound = (m - 1) * m + 1
    for n in range(1, bound + 1):
        if all(all(row) for row in P):
            return PrimitivityResult(True, n)
        Pc = tuple(zip(*P))
        P = tuple(
            tuple(any(a and b for a, b in zip(row, col)) for col in Pc) for row in P
        )
    return PrimitivityResult(False, None)


# ---------------------------------------------------------------------------
# lengths, populations, guarded expansion


@lru_cache(maxsize=4096)
def _count_power(zeta: Substitution, n: int) -> Matrix:
    """``S^n`` for the count matrix ``S`` of ``zeta``, exact and memoised.

    Built by halving, ``S^n = S^ceil(n/2) S^floor(n/2)``, so a cold call
    recurses about log2(n) deep and reuses the memoised halves."""
    if n < 0:
        raise ValueError("depth must be >= 0")
    if n == 0:
        return tuple(tuple(int(i == j) for j in range(zeta.m)) for i in range(zeta.m))
    if n == 1:
        return substitution_matrix(zeta)
    return _mat_mul(_count_power(zeta, n - n // 2), _count_power(zeta, n // 2))


def lengths_at(zeta: Substitution, n: int) -> tuple[int, ...]:
    """Vector of expanded lengths ``|zeta^n(b)|`` for ``b = 1..m``.

    The column sums ``1^T S^n`` of the memoised count-matrix power
    ``_count_power``, in exact big integers; no word is ever expanded.
    """
    return tuple(map(sum, zip(*_count_power(zeta, n))))


def tiling_lengths_at(
    zeta: Substitution, n: int, roof: Sequence[Fraction]
) -> tuple[Fraction, ...]:
    """Weighted length of the n-fold image of each letter: ``roof^T S^n``,
    the letter-count vector of the image contracted against the roof, read
    from the memoised count-matrix power ``_count_power``."""
    return tuple(
        sum((r * x for r, x in zip(roof, col, strict=True)), Fraction(0))
        for col in zip(*_count_power(zeta, n))
    )


def iterate_word(
    zeta: Substitution, a: int, n: int, max_len: int = 10**6
) -> Word:
    """Expanded word ``zeta^n(a)``, guarded by a length budget.

    The final length is predicted from matrix powers first; the expansion is
    refused (``BudgetExceeded``) when it would exceed ``max_len``.
    """
    if not 1 <= a <= zeta.m:
        raise ValueError(f"letter {a} outside 1..{zeta.m}")
    predicted = lengths_at(zeta, n)[a - 1]
    if predicted > max_len:
        raise BudgetExceeded(
            f"|zeta^{n}({a})| = {predicted} exceeds the budget {max_len}"
        )
    w: Word = (a,)
    for _ in range(n):
        w = zeta._expand(w)
    return w


def abelianization(v: str | Sequence[int], m: int) -> tuple[int, ...]:
    """Population vector: entry ``j`` counts occurrences of letter ``j+1`` in ``v``."""
    word = as_word(v)
    counts = [0] * m
    for a in word:
        if not 1 <= a <= m:
            raise ValueError(f"letter {a} outside 1..{m}")
        counts[a - 1] += 1
    return tuple(counts)


def tiling_length(v: str | Sequence[int], s: Sequence) -> object:
    """Weighted length ``<population(v), s>`` for a positive roof vector ``s``.

    The arithmetic type of ``s`` (float, Fraction, mpf) is preserved.
    """
    if any(not (si > 0) for si in s):
        raise ValueError("roof vector must be strictly positive")
    counts = abelianization(v, len(s))
    total = 0
    for c, si in zip(counts, s):
        total = total + c * si
    return total


# ---------------------------------------------------------------------------
# Perron-Frobenius data


@dataclass(frozen=True)
class PerronData:
    """Certified dominant-eigenvalue data of a primitive matrix.

    ``r_vec`` is the right eigenvector of ``S`` scaled to sum 1 (letter
    frequencies), ``l_vec`` the right eigenvector of ``S^t`` scaled so that
    ``<r_vec, l_vec> = 1``.  ``theta_interval`` is an exact rational enclosure
    of width at most ``2**-precision_bits``.
    """

    S: Matrix
    theta: mp.mpf
    theta_interval: tuple[Fraction, Fraction]
    r_vec: tuple[mp.mpf, ...]
    l_vec: tuple[mp.mpf, ...]
    normalized: bool
    precision_bits: int
    residual: mp.mpf


def _adjugate_column(A: "mp.matrix") -> "mp.matrix":
    """Best column of the adjugate of A (rank-1 when A is nearly singular)."""
    n = A.rows
    if n == 1:
        return mp.matrix([1])
    adj = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            minor = mp.matrix(n - 1, n - 1)
            for r in range(n):
                if r == j:
                    continue
                for c in range(n):
                    if c == i:
                        continue
                    minor[r - (r > j), c - (c > i)] = A[r, c]
            adj[i, j] = (-1) ** (i + j) * mp.det(minor)
    best, best_norm = None, -1
    for j in range(n):
        col = adj[:, j]
        norm = sum(abs(col[i]) for i in range(n))
        if norm > best_norm:
            best, best_norm = col, norm
    return best


def _dominant_root_seed(poly: tuple[int, ...]) -> "mp.mpf":
    """Real part of the largest-modulus root of ``poly`` (descending) from
    ``mp.polyroots`` at the working precision.  Where polyroots does not
    converge there (a repeated root can stall it at high precision), the
    seed is taken at 53 + 64 bits: it only centres a bracket that is then
    checked exactly."""
    coeffs = [mp.mpf(c) for c in poly]
    try:
        roots = mp.polyroots(coeffs, maxsteps=200, extraprec=100)
    except mp.libmp.NoConvergence:
        with mp.workprec(53 + 64):
            roots = mp.polyroots(coeffs, maxsteps=200, extraprec=100)
    return mp.re(max(roots, key=lambda z: abs(z)))


def perron_data(S: Sequence[Sequence[int]], precision_bits: int = 64) -> PerronData:
    """Certified Perron-Frobenius eigenvalue and eigenvectors of a primitive matrix.

    A ``mp.polyroots`` seed is widened exactly until it brackets the dominant
    eigenvalue, and the bracket is narrowed to width ``2**-precision_bits`` by
    the shared exact root bisection ``algebraic._RootBisection``; eigenvectors are
    computed at matching working precision and validated by their residual.
    Raises ``NotPrimitive`` when no power of ``S`` is strictly positive.
    """
    M = _as_matrix(S)
    m = len(M)
    if not is_primitive(M).primitive:
        raise NotPrimitive("matrix has no strictly positive power")
    poly = tuple(reversed(char_poly(M)))

    def sign(x: Fraction) -> int:
        return _poly_sign_scaled(poly, x.numerator, x.denominator)

    with mp.workprec(max(precision_bits, 53) + 64):
        theta_approx = _dominant_root_seed(poly)

        # Exact rational bracketing around the approximation.
        delta = Fraction(1, 2 ** 40)
        mid = _mpf_to_fraction(theta_approx)
        lo, hi = mid - delta, mid + delta
        widenings = 0
        while sign(lo) == 0:
            lo -= delta
        while sign(hi) == 0:
            hi += delta
        while (sign(lo) > 0) == (sign(hi) > 0):
            delta *= 2
            lo, hi = mid - delta, mid + delta
            widenings += 1
            if widenings > 80:
                raise ArithmeticError("failed to bracket the dominant eigenvalue")
        a, b, den = _RootBisection(poly, lo, hi).bracket(precision_bits)
        lo = Fraction(a, den)
        hi = lo if a == b else Fraction(b, den)

        theta = mp.mpf(lo.numerator) / lo.denominator
        theta = (theta + mp.mpf(hi.numerator) / hi.denominator) / 2

        A = mp.matrix(m, m)
        At = mp.matrix(m, m)
        for i in range(m):
            for j in range(m):
                A[i, j] = theta * (1 if i == j else 0) - M[i][j]
                At[i, j] = theta * (1 if i == j else 0) - M[j][i]
        r_col = _adjugate_column(A)
        l_col = _adjugate_column(At)
        if r_col[max(range(m), key=lambda i: abs(r_col[i]))] < 0:
            r_col = -r_col
        if l_col[max(range(m), key=lambda i: abs(l_col[i]))] < 0:
            l_col = -l_col
        r_sum = sum(r_col[i] for i in range(m))
        r = [r_col[i] / r_sum for i in range(m)]
        rl = sum(r[i] * l_col[i] for i in range(m))
        l = [l_col[i] / rl for i in range(m)]

        res_r = max(
            abs(sum(M[i][j] * r[j] for j in range(m)) - theta * r[i])
            for i in range(m)
        )
        res_l = max(
            abs(sum(M[j][i] * l[j] for j in range(m)) - theta * l[i])
            for i in range(m)
        )
        if any(r[i] <= 0 for i in range(m)) or any(l[i] <= 0 for i in range(m)):
            raise ArithmeticError("Perron eigenvectors must be strictly positive")
        return PerronData(
            S=M,
            theta=+theta,
            theta_interval=(lo, hi),
            r_vec=tuple(+x for x in r),
            l_vec=tuple(+x for x in l),
            normalized=True,
            precision_bits=precision_bits,
            residual=+max(res_r, res_l),
        )


# ---------------------------------------------------------------------------
# return words


class ReturnWord(NamedTuple):
    v: Word
    c: int
    power: int


_EXPANSION_BUDGET = 10**7  # letters in the longest image the search builds


def _extended_return_word(zeta: Substitution, v: str | Sequence[int]) -> Word:
    """``v + c`` for a return word ``v`` with first letter ``c``;
    ``ValueError`` unless ``v`` is a nonempty word over ``1..m`` holding
    ``c`` once."""
    word = as_word(v)
    if not word:
        raise ValueError("the return word must be nonempty")
    c = word[0]
    if c in word[1:]:
        raise ValueError("a return word contains its first letter exactly once")
    for letter in word:
        if not 1 <= letter <= zeta.m:
            raise ValueError(f"letter {letter} outside alphabet 1..{zeta.m}")
    return word + (c,)


def _first_image_without(images: Sequence[Word], vc: Word) -> int | None:
    """The first letter ``b`` whose word ``images[b-1]`` does not contain
    ``vc``, or None when every one does."""
    needle = _searchable(vc)
    for b, im in enumerate(images, start=1):
        if _find(_searchable(im), needle) < 0:
            return b
    return None


def return_word_power(
    zeta: Substitution, v: str | Sequence[int], power_cap: int = 24
) -> int:
    """Smallest power ``p <= power_cap`` with ``v + c`` inside every
    ``zeta^p(b)``, ``c`` the first letter of the return word ``v``.

    The images grow one level at a time, zeta^p(b) = zeta(zeta^(p-1)(b));
    an expansion whose longest image (from ``lengths_at``) would pass
    ``_EXPANSION_BUDGET`` letters raises ``BudgetExceeded`` instead.
    ``ValueError`` for an invalid return word, ``NotFound`` past the cap."""
    vc = _extended_return_word(zeta, v)
    images: tuple[Word, ...] = tuple((b,) for b in range(1, zeta.m + 1))
    for p in range(1, power_cap + 1):
        longest = max(lengths_at(zeta, p))
        if longest > _EXPANSION_BUDGET:
            raise BudgetExceeded(
                f"max |zeta^{p}(b)| = {longest} exceeds the budget "
                f"{_EXPANSION_BUDGET}"
            )
        images = tuple(zeta._expand(w) for w in images)
        if _first_image_without(images, vc) is None:
            return p
    raise NotFound(f"no witnessing power up to {power_cap}")


def find_return_word(
    zeta: Substitution, budget: int = 64, power_cap: int = 40
) -> ReturnWord:
    """Shortest return word of the substitution language.

    Searches, in increasing word length, for a word ``v`` starting with a
    letter ``c``, containing no other ``c``, with ``v + c`` a factor of the
    language; the witnessing power is ``return_word_power(zeta, v,
    power_cap)``, and a candidate without one (``NotFound``) or whose images
    pass the expansion budget (``BudgetExceeded``) is skipped.  Candidates
    are read off a sample expansion of letter 1 at least ten times longer
    than the budget; ties break by shortest ``v``, then smallest ``c``, then
    lexicographic order.  Raises ``NotFound`` when the budget is exhausted.
    """
    prim = is_primitive(substitution_matrix(zeta))
    if not prim.primitive:
        raise NotPrimitive("return-word search requires a primitive substitution")

    want = 10 * budget
    K = 0
    while max(lengths_at(zeta, K)) < want and K < 64:
        K += 1
    text = iterate_word(zeta, 1, K, max_len=_EXPANSION_BUDGET)
    hay = _searchable(text)

    for length in range(1, budget + 1):
        candidates: set[tuple[int, Word]] = set()
        for i in range(len(text) - length + 1):
            v = text[i : i + length]
            c = v[0]
            if c in v[1:]:
                continue
            if _find(hay, _searchable(v + (c,))) >= 0:
                candidates.add((c, v))
        for c, v in sorted(candidates):
            try:
                return ReturnWord(v, c, return_word_power(zeta, v, power_cap))
            except (NotFound, BudgetExceeded):
                pass
    raise NotFound(f"no return word found within length budget {budget}")


# ---------------------------------------------------------------------------
# prefix-suffix numeration


@dataclass(frozen=True)
class PrefixSuffixDecomposition:
    """Two-sided numeration of a language word against the supertile hierarchy.

    The word equals ``u_0 z(u_1) ... z^n(u_n) z^n(v_n) ... z(v_1) v_0`` where
    ``z^k`` denotes the k-fold substitution, each stored piece is a proper
    prefix or suffix of some letter image (possibly empty), and at least one
    of the two depth-``n`` pieces is nonempty.  ``prefixes`` holds
    ``u_0..u_n`` (the ascending left chain), ``suffixes`` holds ``v_0..v_n``
    (the descending right chain).
    """

    n: int
    prefixes: tuple[Word, ...]
    suffixes: tuple[Word, ...]

    def reconstruct(self, zeta: Substitution) -> Word:
        out: list[int] = []
        for i, u in enumerate(self.prefixes):
            w = u
            for _ in range(i):
                w = zeta._expand(w)
            out.extend(w)
        for i in range(self.n, -1, -1):
            w = self.suffixes[i]
            for _ in range(i):
                w = zeta._expand(w)
            out.extend(w)
        return tuple(out)


@lru_cache(maxsize=32)
def _hierarchy(zeta: Substitution, K: int) -> tuple[tuple[Word, ...], tuple[tuple[int, ...], ...]]:
    """Levels ``z_j = zeta^(K-j)(a0)`` and tile boundaries of level j+1 inside level j."""
    a0, _ = fixed_point_letter(zeta)
    words: list[Word] = [(a0,)]
    for _ in range(K):
        words.append(zeta._expand(words[-1]))
    words.reverse()  # words[j] = zeta^(K-j)(a0); words[0] is the full expansion
    boundaries: list[tuple[int, ...]] = []
    for j in range(K):
        parent = words[j + 1]
        bnd = [0]
        for c in parent:
            bnd.append(bnd[-1] + len(zeta.images[c - 1]))
        boundaries.append(tuple(bnd))
    return tuple(words), tuple(boundaries)


def _proper_prefixes(zeta: Substitution) -> set[Word]:
    out: set[Word] = set()
    for im in zeta.images:
        for k in range(len(im)):
            out.add(im[:k])
    return out


def _proper_suffixes(zeta: Substitution) -> set[Word]:
    out: set[Word] = set()
    for im in zeta.images:
        for k in range(1, len(im) + 1):
            out.add(im[k:])
    return out


def prefix_suffix_decomposition(
    zeta: Substitution, x_prefix: str | Sequence[int], N: int | None = None
) -> PrefixSuffixDecomposition:
    """Decompose a language word into hierarchy-aligned blocks.

    The word is anchored at an occurrence inside a large canonical expansion
    and peeled level by level: ragged left parts become the ``u`` chain,
    ragged right parts the ``v`` chain, and the central full tiles ascend one
    level per step.  Reconstruction is exact.  Raises ``NotInLanguage`` when
    the word cannot be located in the language sample.
    """
    word = as_word(x_prefix)
    if N is not None:
        word = word[:N]
    if not word:
        raise ValueError("the word must be nonempty")
    for a in word:
        if not 1 <= a <= zeta.m:
            raise NotInLanguage(f"letter {a} outside alphabet 1..{zeta.m}")

    N = len(word)
    # Choose the expansion depth so the anchor window sits strictly inside.
    K = 1
    while max(lengths_at(zeta, K)) < max(4 * N, 64) and K < 80:
        K += 1
    q = -1
    for extra in range(9):
        words, boundaries = _hierarchy(zeta, K + extra)
        q = _find(_searchable(words[0]), _searchable(word))
        if q >= 0:
            K = K + extra
            break
    if q < 0:
        raise NotInLanguage(
            f"word of length {N} not found in a depth-{K + 8} language sample"
        )

    prefixes_pool = _proper_prefixes(zeta)
    suffixes_pool = _proper_suffixes(zeta)

    def top_split(w: Word) -> tuple[Word, Word]:
        """Split w = alpha + beta, alpha an image suffix, beta an image prefix."""
        if w in prefixes_pool:
            return (), w
        if w in suffixes_pool:
            return w, ()
        for cut in range(1, len(w)):
            if w[:cut] in suffixes_pool and w[cut:] in prefixes_pool:
                return w[:cut], w[cut:]
        raise NotFound(
            "window is interior to a single image and admits no suffix/prefix cut"
        )

    from bisect import bisect_right

    u_chain: list[Word] = []
    v_chain: list[Word] = []
    s, e = q, q + N
    j = 0
    while True:
        if j >= K:
            # Top of the hierarchy: the remaining window is the whole sample.
            alpha, beta = top_split(words[j][s:e])
            u_chain.append(alpha)
            v_chain.append(beta)
            break
        level = words[j]
        bnd = boundaries[j]
        tL = bisect_right(bnd, s) - 1
        tR = bisect_right(bnd, e - 1) - 1
        if tL == tR:
            A, B = bnd[tL], bnd[tL + 1]
            if s == A and e == B:
                # Exactly one full tile: ascend without emitting pieces.
                u_chain.append(())
                v_chain.append(())
                s, e = tL, tL + 1
                j += 1
                continue
            alpha, beta = top_split(level[s:e])
            u_chain.append(alpha)
            v_chain.append(beta)
            break
        if s == bnd[tL]:
            u_piece: Word = ()
            first_full = tL
        else:
            u_piece = level[s : bnd[tL + 1]]
            first_full = tL + 1
        if e == bnd[tR + 1]:
            v_piece: Word = ()
            last_full = tR
        else:
            v_piece = level[bnd[tR] : e]
            last_full = tR - 1
        u_chain.append(u_piece)
        v_chain.append(v_piece)
        if first_full > last_full:
            break
        s, e = first_full, last_full + 1
        j += 1

    n = len(u_chain) - 1
    # The loop above may finish with both top pieces empty only in the
    # exact-tile branch, which always continues; so the top level is nonempty.
    decomposition = PrefixSuffixDecomposition(
        n=n, prefixes=tuple(u_chain), suffixes=tuple(v_chain)
    )
    if decomposition.reconstruct(zeta) != word:
        raise ArithmeticError("internal error: reconstruction mismatch")
    return decomposition


# ---------------------------------------------------------------------------
# fixed points and aperiodicity


def fixed_point_letter(zeta: Substitution) -> tuple[int, int]:
    """A letter ``a`` and the smallest power ``k`` with ``zeta^k(a)`` starting with ``a``.

    Follows the first-letter map into its cycle and returns the smallest
    letter on the cycle; the iterated substitution at that power has a genuine
    one-sided fixed point starting with ``a``.
    """
    first = [im[0] for im in zeta.images]
    seen: dict[int, int] = {}
    a = 1
    step = 0
    while a not in seen:
        seen[a] = step
        a = first[a - 1]
        step += 1
    cycle_start = seen[a]
    cycle = [
        letter for letter, when in seen.items() if when >= cycle_start
    ]
    a = min(cycle)
    k = len(cycle)
    return a, k


_FIXED_POINT_LOCK = threading.Lock()  # guards only the memo's store


@lru_cache(maxsize=32)
def _fixed_point(zeta: Substitution) -> list:
    """``[zeta^k, longest prefix read so far]``, the prefix starting as
    ``(a,)``, for ``(a, k) = fixed_point_letter(zeta)``."""
    a, k = fixed_point_letter(zeta)
    images = zeta.images
    for _ in range(k - 1):
        images = tuple(zeta._expand(im) for im in images)
    return [Substitution(zeta.m, images), (a,)]


def fixed_point_prefix(zeta: Substitution, length: int) -> Word:
    """The first ``length`` letters of the canonical one-sided fixed point.

    A longer request than the memo holds grows the stored prefix w to
    zeta^k(w), cut to ``length``; each step grows w unless |zeta^k(a)| = 1,
    when there is no infinite fixed point (``NotFound``)."""
    memo = _fixed_point(zeta)
    zk, w = memo
    if len(w) < length and len(zk.images[w[0] - 1]) == 1:
        raise NotFound("substitution does not expand; no infinite fixed point")
    while len(w) < length:
        w = zk._expand(w)[:length]
    with _FIXED_POINT_LOCK:
        if len(w) > len(memo[1]):
            memo[1] = w
    return w[: max(length, 0)]


class AperiodicityVerdict(NamedTuple):
    kind: str  # "Aperiodic" | "PeriodicWitness" | "Unknown"
    period: int | None = None


def _minimal_period(word: Word) -> int:
    """Smallest p with word[i] == word[i+p] wherever both sides exist."""
    n = len(word)
    fail = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        while k > 0 and word[i] != word[k]:
            k = fail[k]
        if word[i] == word[k]:
            k += 1
        fail[i + 1] = k
    return n - fail[n]


def _factor_count(word: Word, L: int) -> int:
    return len({word[i : i + L] for i in range(len(word) - L + 1)})


def is_aperiodic_heuristic(
    zeta: Substitution, depth_budget: int = 4096
) -> AperiodicityVerdict:
    """Heuristic periodicity test on a fixed-point prefix.

    Reports a periodic witness when the prefix of ``depth_budget`` letters has
    minimal period at most ``depth_budget/4`` and the factor counts have
    stopped growing; reports aperiodic when factor counts grow strictly over
    the scanned lengths; otherwise unknown.  This is a heuristic, not a
    decision procedure.
    """
    w = fixed_point_prefix(zeta, depth_budget)
    p = _minimal_period(w)
    if p <= depth_budget // 4:
        check_len = min(2 * p + 1, depth_budget // 2)
        if _factor_count(w, check_len) <= p:
            return AperiodicityVerdict("PeriodicWitness", p)
        return AperiodicityVerdict("Unknown", None)
    max_scan = min(40, depth_budget // 8)
    counts = [_factor_count(w, L) for L in range(1, max_scan + 1)]
    if all(b > a for a, b in zip(counts, counts[1:])):
        return AperiodicityVerdict("Aperiodic", None)
    return AperiodicityVerdict("Unknown", None)
