"""The memoised count-matrix power and everything that reads it.

``substitution._count_power`` is the one place that computes S^n.  The
loops it replaced are kept here as reference functions: the matrix-power
chain of ``riesz``, the mat-vec chain of ``lengths_at``, the x chain of
``dioph_constants``, the (S^T)^n chain of ``riesz._error_units`` and the
power list of ``flows.occupation_times``.  Every value is an exact integer
or Fraction, so the comparisons are ``==``.
"""

from __future__ import annotations

import random
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from subspectral import flows, riesz, spectral
from subspectral.substitution import (
    Substitution,
    _count_power,
    find_return_word,
    lengths_at,
    substitution_matrix,
    tiling_lengths_at,
)

RUNNING = Substitution.from_images(["1222", "1"])
THUE_MORSE = Substitution.from_images(["12", "21"])
FIBONACCI = Substitution.from_images(["12", "1"])
SYMMETRIC = Substitution.from_images(["1112", "1222"])
# three letters whose row sums (3, 3, 3) differ from the image lengths (4, 3, 2)
THREE = Substitution.from_images(["1123", "213", "32"])

SUBS = {
    "running": RUNNING,
    "running3": RUNNING.power(3),
    "tm": THUE_MORSE,
    "fib": FIBONACCI,
    "sym": SYMMETRIC,
    "three": THREE,
}
ALL = pytest.mark.parametrize("zeta", list(SUBS.values()), ids=list(SUBS))


# ---------------------------------------------------------------------------
# reference functions: the per-call loops the memoised power replaced


def ref_matrix_power(zeta, n):
    """S^n by n products from the identity."""
    S = substitution_matrix(zeta)
    m = zeta.m
    acc = tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))
    for _ in range(n):
        acc = tuple(
            tuple(sum(acc[i][k] * S[k][j] for k in range(m)) for j in range(m))
            for i in range(m)
        )
    return acc


def ref_lengths(zeta, n):
    """(S^T)^n applied to the all-ones vector by n mat-vecs."""
    S = substitution_matrix(zeta)
    m = zeta.m
    v = (1,) * m
    for _ in range(n):
        v = tuple(sum(S[j][i] * v[j] for j in range(m)) for i in range(m))
    return v


def ref_c3_chain(zeta, c, k_max):
    """The c3 values of ``dioph_constants`` from its own x chain."""
    S = substitution_matrix(zeta)
    m = zeta.m
    St = tuple(tuple(S[j][i] for j in range(m)) for i in range(m))
    R = max(len(im) for im in zeta.images)
    x = tuple(1 for _ in range(m))
    out = []
    for _ in range(k_max + 1):
        out.append(Fraction(x[c - 1], 2 * m * R * max(x)))
        x = tuple(sum(St[i][j] * x[j] for j in range(m)) for i in range(m))
    return out


def ref_error_units(zeta, n, bits):
    """E_n and (S^T)^n of the numerical policy, both chains run together."""
    S = substitution_matrix(zeta)
    m = zeta.m
    St = tuple(tuple(S[j][i] for j in range(m)) for i in range(m))

    def mul(A, B):
        return tuple(
            tuple(sum(A[i][k] * B[k][j] for k in range(m)) for j in range(m))
            for i in range(m)
        )

    E = T = St
    for _ in range(n - 1):
        T = mul(St, T)
        F = mul(St, E)
        E = tuple(
            tuple(
                F[i][j] + -(-F[i][j] // 2**bits) + T[i][j] + 1 for j in range(m)
            )
            for i in range(m)
        )
    return E, T


def ref_occupation_powers(zeta, K):
    """The power list S^0 .. S^K that ``occupation_times`` used to build."""
    S = substitution_matrix(zeta)
    m = zeta.m
    powers = [[[1 if i == j else 0 for j in range(m)] for i in range(m)]]
    for _ in range(K):
        prev = powers[-1]
        powers.append(
            [
                [sum(S[i][k] * prev[k][j] for k in range(m)) for j in range(m)]
                for i in range(m)
            ]
        )
    return powers


def ref_tiling_lengths(zeta, n, roof):
    Sn = ref_matrix_power(zeta, n)
    m = zeta.m
    return tuple(
        sum((roof[i] * Sn[i][c] for i in range(m)), Fraction(0)) for c in range(m)
    )


def roofs_for(zeta, seed=7):
    rng = random.Random(seed)
    return [
        tuple(Fraction(rng.randint(1, 60), rng.randint(1, 60)) for _ in range(zeta.m))
        for _ in range(3)
    ]


# ---------------------------------------------------------------------------
# the power and the lengths


@ALL
def test_count_power_matches_reference(zeta):
    for n in range(65):
        assert _count_power(zeta, n) == ref_matrix_power(zeta, n)


@ALL
def test_lengths_at_matches_reference(zeta):
    for n in range(65):
        assert lengths_at(zeta, n) == ref_lengths(zeta, n)


@ALL
def test_lengths_are_column_sums(zeta):
    # |zeta^n(b)| is the number of letters in the n-fold image of b
    w = [(b,) for b in range(1, zeta.m + 1)]
    for n in range(6):
        assert lengths_at(zeta, n) == tuple(len(x) for x in w)
        w = [zeta.apply(x) for x in w]


@ALL
def test_tiling_lengths_match_reference(zeta):
    for roof in roofs_for(zeta):
        for n in range(65):
            got = tiling_lengths_at(zeta, n, roof)
            assert got == ref_tiling_lengths(zeta, n, roof)
            assert all(type(x) is Fraction for x in got)


@ALL
def test_cold_deep_power_is_logarithmic(zeta):
    _count_power.cache_clear()
    got = _count_power(zeta, 1030)
    # halving visits at most two exponents per bit of 1030
    assert _count_power.cache_info().misses <= 2 * (1030).bit_length() + 1
    assert got == ref_matrix_power(zeta, 1030)
    assert lengths_at(zeta, 1030) == ref_lengths(zeta, 1030)
    roof = roofs_for(zeta)[0]
    assert tiling_lengths_at(zeta, 1030, roof) == ref_tiling_lengths(zeta, 1030, roof)


def test_negative_depth_is_refused():
    for f in (lengths_at, _count_power):
        with pytest.raises(ValueError, match="depth"):
            f(RUNNING, -1)
    with pytest.raises(ValueError, match="depth"):
        tiling_lengths_at(RUNNING, -1, (Fraction(1), Fraction(2)))


def test_tiling_lengths_refuse_a_roof_of_the_wrong_length():
    with pytest.raises(ValueError):
        tiling_lengths_at(THREE, 2, (Fraction(1), Fraction(2)))


# ---------------------------------------------------------------------------
# the readers


@ALL
@pytest.mark.parametrize("bits", [64, 106])
def test_error_units_match_reference(zeta, bits):
    for n in range(1, 41):
        assert riesz._error_units(zeta, n, bits) == ref_error_units(zeta, n, bits)


def test_cold_deep_error_units_fill_in_strides():
    # one recursion level per depth would pass the interpreter's limit here
    riesz._error_units.cache_clear()
    cold = riesz._error_units(THUE_MORSE, 1100, 106)
    riesz._error_units.cache_clear()
    for n in range(1, 1101):
        warm = riesz._error_units(THUE_MORSE, n, 106)
    assert cold == warm == ref_error_units(THUE_MORSE, 1100, 106)


@ALL
def test_dioph_constants_c3_match_x_chain(zeta):
    rw = find_return_word(zeta)
    zp = zeta.power(rw.power) if rw.power > 1 else zeta
    consts = spectral.dioph_constants(zp, rw.v, k_max=20)
    assert list(consts.c3_values) == ref_c3_chain(zp, consts.c, 20)


@ALL
def test_occupation_times_match_power_list(zeta):
    flow = flows.make_flow(zeta, roofs_for(zeta)[0])
    for t in (Fraction(1, 3), 5, Fraction(1234, 7), 10**4):
        tt = Fraction(t)
        blocks, straddle, remaining = flows._supertile_blocks(flow, tt)
        powers = ref_occupation_powers(zeta, max((lv for lv, _ in blocks), default=0))
        want = [Fraction(0)] * zeta.m
        for level, c in blocks:
            for a in range(zeta.m):
                want[a] += powers[level][a][c - 1] * flow.roof[a]
        if straddle is not None and remaining > 0:
            want[straddle - 1] += remaining
        assert flows.occupation_times(flow, t) == tuple(want)


@ALL
def test_length_identity_defect_against_reference(zeta):
    # self-similar roofs: the field identity holds exactly at every depth
    flow = flows.self_similar_roof(zeta)
    for n in (0, 1, 5, 17):
        assert flows.length_identity_defect(flow, (1, 2), n) == 0
    # a rational roof: the gap from the reference tiling lengths
    flow = flows.make_flow(zeta, roofs_for(zeta)[1])
    lo, hi = flow.theta_interval
    base = sum(flow.roof[c - 1] for c in (1, 2))
    for n in (0, 3, 9):
        lens = ref_tiling_lengths(zeta, n, flow.roof)
        via = lens[0] + lens[1]
        want = max(abs(via - base * lo**n), abs(via - base * hi**n))
        assert flows.length_identity_defect(flow, (1, 2), n) == want


def test_make_flow_detects_self_similarity_through_the_power():
    # SYMMETRIC has theta = 4 with S^T (1, 1) = 4 (1, 1)
    assert flows.make_flow(SYMMETRIC, (1, 1)).self_similar
    assert not flows.make_flow(SYMMETRIC, (1, 2)).self_similar
    assert not flows.make_flow(RUNNING, (1, 1)).self_similar


# ---------------------------------------------------------------------------
# threads


def test_identical_results_under_threads():
    _count_power.cache_clear()
    riesz._error_units.cache_clear()
    depths = list(range(0, 130)) + [517, 1030]
    want = {
        key: [
            (ref_lengths(z, n), ref_tiling_lengths(z, n, roofs_for(z)[0]))
            for n in depths
        ]
        for key, z in SUBS.items()
    }
    E_want = {key: ref_error_units(z, 40, 106) for key, z in SUBS.items()}

    def work(seed):
        order = list(SUBS.items())
        random.Random(seed).shuffle(order)
        got = {}
        for key, z in order:
            roof = roofs_for(z)[0]
            seq = depths[::-1] if seed % 2 else depths
            vals = {n: (lengths_at(z, n), tiling_lengths_at(z, n, roof)) for n in seq}
            got[key] = ([vals[n] for n in depths], riesz._error_units(z, 40, 106))
        return got

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(work, range(6), timeout=300))
    finally:
        sys.setswitchinterval(old)
    assert len(results) == 6
    for got in results:
        for key in SUBS:
            assert got[key][0] == want[key]
            assert got[key][1] == E_want[key]
