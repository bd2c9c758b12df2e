"""Tests for transfer matrices and twisted exponential sums.

The brute-force summations (`phi_direct`, `phi_suspension_direct`) act as
oracles for every recursive computation; where both sides are high precision
the tolerances are tight, where the oracle itself is double precision they
are 1e-9 as stated in the interface docs.  The integer kernel is checked
against the earlier `mpc` product loop, kept here as a reference run at
2P + 32 bits, within the error bounds the kernel reports; so are the
level-word and Birkhoff sums of ``riesz._twisted_row``, against the earlier
`mpc` evaluations of ``phi_of_level_word`` and ``birkhoff_twisted``, and
mutated rows must fail that check.
"""

import cmath
import math
import pickle
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspectral import riesz, spectral
from subspectral.errors import BudgetExceeded
from subspectral.riesz import (
    phi_direct,
    phi_of_level_word,
    phi_recursive,
    phi_suspension,
    phi_suspension_direct,
    riesz_density,
    riesz_product,
    shifted_product,
    tiling_lengths_at,
    transfer_matrix,
)
from subspectral.spectral import birkhoff_twisted
from subspectral.substitution import (
    Substitution,
    _as_matrix,
    _count_power,
    _transpose,
    fixed_point_prefix,
    iterate_word,
    lengths_at,
    perron_data,
    prefix_suffix_decomposition,
    substitution_matrix,
)

RUNNING = Substitution.from_images(["1222", "1"])
THUE_MORSE = Substitution.from_images(["12", "21"])
SYMMETRIC = Substitution.from_images(["1112", "1222"])
TRIBONACCI = Substitution.from_images(["12", "13", "1"])


def s_transpose(zeta):
    return _transpose(_as_matrix(substitution_matrix(zeta)))


# ---------------------------------------------------------------------------
# reference arithmetic: tuples of mpc rows at a given working precision


def _cmat_mul(A, B):
    m = len(A)
    return tuple(
        tuple(mp.fsum(A[i][t] * B[t][j] for t in range(m)) for j in range(m))
        for i in range(m)
    )


def _cnorm_inf(A):
    return max(mp.fsum(abs(x) for x in row) for row in A)


def reference_transfer(zeta, n, om, roof):
    """Level-n transfer matrix from exact rational cumulative lengths and
    ``expjpi`` phases at the working precision."""
    lens = lengths_at(zeta, n) if roof is None else tiling_lengths_at(zeta, n, roof)
    rows = []
    for b in range(1, zeta.m + 1):
        acc = [mp.mpc(0)] * zeta.m
        cum = Fraction(0)
        for c in zeta.image(b):
            phase = (om * cum) % 1
            acc[c - 1] += mp.expjpi(-2 * mp.mpf(phase.numerator) / phase.denominator)
            cum += lens[c - 1]
        rows.append(tuple(acc))
    return tuple(rows)


def reference_products(zeta, k, n, om, roof, bits):
    """Depth 1..n products for levels k.., newest on the left, and their
    norms, at 2 * bits + 32 bits."""
    with mp.workprec(2 * bits + 32):
        A = reference_transfer(zeta, k, om, roof)
        out = [(A, _cnorm_inf(A))]
        for level in range(k + 1, k + n):
            A = _cmat_mul(reference_transfer(zeta, level, om, roof), A)
            out.append((A, _cnorm_inf(A)))
    return out


def units(z, bits):
    """Real and imaginary parts of an mpc in units 2^-bits, exactly."""
    return (
        riesz.as_exact(z.real) * 2**bits,
        riesz.as_exact(z.imag) * 2**bits,
    )


def reference_unit(om, t):
    """e^(-2 pi i omega t) at the working precision, from the exactly
    reduced phase."""
    ph = (om * t) % 1
    return mp.expjpi(-2 * mp.mpf(ph.numerator) / ph.denominator)


def reference_level_word(zeta, w, level, a, om, roof, bits):
    """The earlier ``mpc`` evaluation of ``phi_of_level_word`` at
    2 * bits + 32 bits, on the reference products: each letter's column
    entry times the phase of the exact length before it, and the sum times
    e^(-2 pi i omega roof[a]) under a roof."""
    with mp.workprec(2 * bits + 32):
        if level == 0:
            col = [mp.mpc(int(c == a)) for c in range(1, zeta.m + 1)]
        else:
            P = reference_products(zeta, 0, level, om, roof, bits)[-1][0]
            col = [P[c - 1][a - 1] for c in range(1, zeta.m + 1)]
        if roof is None:
            lens, head = lengths_at(zeta, level), mp.mpc(1)
        else:
            lens = tiling_lengths_at(zeta, level, roof)
            head = reference_unit(om, roof[a - 1])
        acc = mp.mpc(0)
        cum = Fraction(0)
        for c in w:
            acc += reference_unit(om, cum) * col[c - 1]
            cum += lens[c - 1]
        return head * acc


def decomposition_pieces(zeta, word):
    """The (block, level, offset) pieces of ``birkhoff_twisted``."""
    dec = prefix_suffix_decomposition(zeta, word)
    blocks = [(dec.prefixes[j], j) for j in range(dec.n + 1)]
    blocks += [(dec.suffixes[j], j) for j in range(dec.n, -1, -1)]
    pieces = []
    cum = 0
    for block, j in blocks:
        pieces.append((block, j, cum))
        cum += sum(lengths_at(zeta, j)[c - 1] for c in block)
    return pieces


def reference_birkhoff(zeta, f, word, om, bits):
    """The earlier ``mpc`` evaluation of ``birkhoff_twisted`` at
    2 * bits + 32 bits: each block's coefficient-weighted level-word sums,
    shifted by the phase of what precedes the block."""
    with mp.workprec(2 * bits + 32):
        acc = mp.mpc(0)
        for block, j, offset in decomposition_pieces(zeta, word):
            if block:
                phi_f = mp.fsum(
                    mp.mpc(d) * reference_level_word(zeta, block, j, a, om, None, bits)
                    for a, d in enumerate(f, start=1)
                )
                acc += reference_unit(om, offset) * phi_f
        return acc


def row_bound(zeta, pieces, bits):
    """The error bound of ``riesz._twisted_row`` in units 2^-bits, entry by
    entry, as its docstring states it."""
    out = [0] * zeta.m
    for w, level, _ in pieces:
        n = [w.count(c) for c in range(1, zeta.m + 1)]
        if level == 0:
            out = [x + k for x, k in zip(out, n)]
            continue
        E, T = riesz._error_units(zeta, level, bits)
        up = (1 << bits) - 1
        for a in range(zeta.m):
            out[a] += 1 + sum(
                n[c] * (T[c][a] + E[c][a] + ((E[c][a] + up) >> bits))
                for c in range(zeta.m)
            )
    return out


def dist2(z, w):
    """|z - w|^2 of two mpcs, exactly."""
    dx = riesz.as_exact(z.real) - riesz.as_exact(w.real)
    dy = riesz.as_exact(z.imag) - riesz.as_exact(w.imag)
    return dx * dx + dy * dy


# ---------------------------------------------------------------------------
# brute-force sums


class TestPhiDirect:
    def test_two_equal_letters(self):
        for om in (0.0, 0.123, 0.5, 0.987):
            got = phi_direct((1, 1), 1, om)
            want = 1 + cmath.exp(-2j * cmath.pi * om)
            assert abs(got - want) < 1e-14

    def test_zero_frequency_counts_letters(self):
        w = (1, 2, 2, 1, 2, 1, 1, 2, 2)
        for a in (1, 2):
            got = phi_direct(w, a, 0)
            assert got == w.count(a)

    def test_single_term_at_half(self):
        # only position j=1 holds letter 2: e^(-2 pi i * 1/2) = -1
        got = phi_direct((1, 2), 2, Fraction(1, 2))
        assert abs(got - (-1)) < 1e-15

    def test_budget(self):
        with pytest.raises(BudgetExceeded):
            phi_direct((1,) * 100, 1, 0.3, budget=99)

    def test_parseval_lag_zero(self):
        # the lag-0 autocorrelation of the positions of `a` is the letter
        # count, exactly, for every word
        for zeta in (RUNNING, THUE_MORSE):
            for b in (1, 2):
                w = iterate_word(zeta, b, 5)
                for a in (1, 2):
                    pos = [j for j, c in enumerate(w) if c == a]
                    assert len(pos) == w.count(a)
                    # and |phi(., omega=0)|^2 equals count^2 while the
                    # integral of |phi|^2 over one period equals the count
                    G = 2 * len(w) + 1
                    total = sum(
                        abs(phi_direct(w, a, Fraction(t, G))) ** 2 for t in range(G)
                    )
                    assert abs(total / G - w.count(a)) < 1e-8


    def test_long_word_zero_frequency_is_exact_count(self):
        w = iterate_word(RUNNING, 1, 10)
        for a in (1, 2):
            assert phi_direct(w, a, 0) == w.count(a)
            assert phi_direct(list(w), a, Fraction(7)) == w.count(a)

    @staticmethod
    def mp_sum(w, a, omega):
        # sequential sum of exactly reduced phases at 200 bits
        om = Fraction(omega) % 1
        p, q = om.numerator, om.denominator
        with mp.workprec(200):
            acc = mp.mpc(0)
            for j, letter in enumerate(w):
                if letter == a:
                    acc += mp.expjpi(-2 * mp.mpf((p * j) % q) / q)
            return complex(acc)

    @staticmethod
    def tolerance(w, a):
        # a few ulps of phase error per term, plus pairwise summation
        count = max(1, w.count(a))
        return (8 + math.log2(count)) * 2.0**-53 * count

    def test_machine_integer_path_against_mpmath(self):
        w = iterate_word(RUNNING, 1, 9)
        # q < 2**53 and p * len(w) < 2**63: phases reduced in int64
        cases = (Fraction(123457, 10**6), Fraction(1, 3), Fraction(2**40, 2**52 - 1))
        for om in cases:
            assert om.denominator < 2**53
            assert om.numerator * len(w) < 2**63
            for a in (1, 2):
                got = phi_direct(w, a, om)
                assert abs(got - self.mp_sum(w, a, om)) <= self.tolerance(w, a)

    def test_big_integer_path_against_mpmath(self):
        w = iterate_word(RUNNING, 2, 10)
        cases = (
            Fraction(1, 3) + Fraction(1, 2**60 + 1),  # q > 2**53
            Fraction(2**52 - 3, 2**52 - 1),  # q < 2**53 but p * len(w) >= 2**63
            0.1,  # a float is a binary rational, here with q = 2**55
        )
        for om in cases:
            q = Fraction(om).denominator
            assert q > 2**53 or Fraction(om).numerator * len(w) >= 2**63
            for a in (1, 2):
                got = phi_direct(w, a, om)
                assert abs(got - self.mp_sum(w, a, om)) <= self.tolerance(w, a)

    def test_string_word(self):
        want = phi_direct((1, 2, 2, 1), 1, 0.5)
        assert phi_direct("1,2,2,1", 1, Fraction(1, 2)) == want
        assert phi_direct("1221", 2, 0) == 2


# ---------------------------------------------------------------------------
# transfer matrices


class TestTransferMatrix:
    def test_zero_frequency_is_transpose_matrix_all_levels(self):
        for zeta in (RUNNING, THUE_MORSE, SYMMETRIC):
            St = s_transpose(zeta)
            for n in range(51):
                M = transfer_matrix(zeta, n, 0)
                for b in range(zeta.m):
                    for c in range(zeta.m):
                        e = M.entries[b][c]
                        assert e.imag == 0
                        assert int(e.real) == e.real == St[b][c]

    def test_integer_frequency_reduces_to_counts(self):
        St = s_transpose(RUNNING)
        M = transfer_matrix(RUNNING, 0, 1)
        for b in range(2):
            for c in range(2):
                assert abs(complex(M.entries[b][c]) - St[b][c]) < 1e-30

    def test_running_example_entries(self):
        for n in (0, 1, 2, 4):
            om = 0.37
            M = transfer_matrix(RUNNING, n, om)
            l1, l2 = lengths_at(RUNNING, n)
            want = sum(
                cmath.exp(-2j * cmath.pi * float((Fraction(om) * c) % 1))
                for c in (l1, l1 + l2, l1 + 2 * l2)
            )
            assert abs(complex(M.entries[0][1]) - want) < 1e-12
            assert abs(complex(M.entries[0][0]) - 1) < 1e-30
            assert abs(complex(M.entries[1][0]) - 1) < 1e-30
            assert abs(complex(M.entries[1][1])) < 1e-30

    def test_entry_moduli_bounded_by_counts(self):
        St = s_transpose(SYMMETRIC)
        for om in (0.11, 0.47, 0.93):
            M = transfer_matrix(SYMMETRIC, 3, om)
            for b in range(2):
                for c in range(2):
                    assert abs(complex(M.entries[b][c])) <= St[b][c] + 1e-12


# ---------------------------------------------------------------------------
# products


class TestRieszProduct:
    def test_zero_frequency_is_matrix_power(self):
        for zeta in (RUNNING, THUE_MORSE):
            St = np.array(s_transpose(zeta))
            for n in (1, 3, 7):
                P = riesz_product(zeta, n, 0)
                want = np.linalg.matrix_power(St, n)
                for b in range(zeta.m):
                    for c in range(zeta.m):
                        assert abs(complex(P.matrix[b][c]) - want[b][c]) < 1e-25

    def test_columns_match_direct_sums(self):
        for zeta in (RUNNING, THUE_MORSE):
            for n in range(1, 9):
                for om in (0.3, 0.41, 1 / 3):
                    P = riesz_product(zeta, n, om)
                    for b in (1, 2):
                        w = iterate_word(zeta, b, n)
                        for a in (1, 2):
                            want = phi_direct(w, a, om)
                            assert abs(complex(P.matrix[b - 1][a - 1]) - want) < 1e-9

    def test_entrywise_domination(self):
        St = np.array(s_transpose(RUNNING))
        for n in (2, 5, 9):
            bound = np.linalg.matrix_power(St, n)
            for om in (0.2357, 0.618, 0.05):
                P = riesz_product(RUNNING, n, om)
                for b in range(2):
                    for c in range(2):
                        assert abs(complex(P.matrix[b][c])) <= bound[b][c] + 1e-12

    def test_cocycle_relation_and_chain(self):
        om = 0.7771
        chain = [None] + [riesz_product(RUNNING, n, om).matrix for n in range(1, 7)]
        with mp.workprec(106):
            for n in range(1, 7):
                P = riesz_product(RUNNING, n, om)
                Mn = transfer_matrix(RUNNING, n, om).entries
                nxt = riesz_product(RUNNING, n + 1, om)
                for b in range(2):
                    for c in range(2):
                        assert (
                            abs(complex(P.matrix[b][c]) - complex(chain[n][b][c]))
                            < 1e-28
                        )
                        step = sum(Mn[b][t] * P.matrix[t][c] for t in range(2))
                        assert abs(complex(nxt.matrix[b][c]) - complex(step)) < 1e-25

    def test_per_step_norms_logged(self):
        P = riesz_product(RUNNING, 5, 0.3)
        assert len(P.per_step_norms) == 5
        assert all(x > 0 for x in P.per_step_norms)

    def test_depth_zero_rejected(self):
        with pytest.raises(ValueError):
            riesz_product(RUNNING, 0, 0.3)


class TestShiftedProduct:
    def test_zero_shift_equals_plain_product(self):
        om = 0.29
        a = riesz_product(RUNNING, 4, om)
        b = shifted_product(RUNNING, 0, 4, om)
        for i in range(2):
            for j in range(2):
                assert a.matrix[i][j] == b.matrix[i][j]

    def test_zero_frequency_any_shift(self):
        St = np.array(s_transpose(RUNNING))
        for k in (0, 2, 5):
            P = shifted_product(RUNNING, k, 3, 0)
            want = np.linalg.matrix_power(St, 3)
            for b in range(2):
                for c in range(2):
                    assert abs(complex(P.matrix[b][c]) - want[b][c]) < 1e-25

    def test_window_product_matches_manual_multiplication(self):
        om = 0.41
        with mp.workprec(106):
            Ms = [transfer_matrix(RUNNING, k, om).entries for k in range(5)]

            def mul(A, B):
                return [
                    [sum(A[i][t] * B[t][j] for t in range(2)) for j in range(2)]
                    for i in range(2)
                ]

            manual = mul(Ms[4], mul(Ms[3], Ms[2]))
        got = shifted_product(RUNNING, 2, 3, om)
        for b in range(2):
            for c in range(2):
                assert abs(complex(got.matrix[b][c]) - complex(manual[b][c])) < 1e-25


class TestMemoisation:
    @staticmethod
    def clear():
        riesz._transfer_matrix.cache_clear()
        riesz._prefix_product.cache_clear()

    @staticmethod
    def loop_product(zeta, k, n, om, roof=None, bits=106):
        # the unmemoised left-to-right product on the integer kernel, newest
        # level on the left; a norm is the max row sum of isqrt(x^2 + y^2)
        om = riesz.as_exact(om)
        rf = None if roof is None else tuple(map(Fraction, roof))
        build = riesz._transfer_matrix.__wrapped__

        def norm(A):
            return max(sum(math.isqrt(x * x + y * y) for x, y in row) for row in A)

        A = build(zeta, k, om, rf, bits)
        norms = [norm(A) / 2**bits]
        for level in range(k + 1, k + n):
            A = riesz._mul(build(zeta, level, om, rf, bits), A, bits)
            norms.append(norm(A) / 2**bits)
        return riesz._mpc_matrix(A, bits), tuple(norms)

    def test_cold_and_warm_products_are_identical(self):
        roof = (Fraction(3, 2), Fraction(1, 3))
        for zeta in (RUNNING, SYMMETRIC):
            for om, rf, bits in ((0.7771, None, 106), (Fraction(2, 7), roof, 64)):
                for k, n in ((0, 9), (0, 4), (3, 5), (1, 1)):
                    warm = shifted_product(zeta, k, n, om, rf, bits)
                    self.clear()
                    cold = shifted_product(zeta, k, n, om, rf, bits)
                    again = shifted_product(zeta, k, n, om, rf, bits)
                    for P in (cold, again):
                        assert P.matrix == warm.matrix
                        assert P.per_step_norms == warm.per_step_norms
                    self.clear()
                    A, norms = self.loop_product(zeta, k, n, om, rf, bits)
                    assert warm.matrix == A
                    assert warm.per_step_norms == norms
                    if k == 0:
                        P = riesz_product(zeta, n, om, rf, bits)
                        assert P.matrix == A and P.per_step_norms == norms

    def test_deeper_product_reuses_shallower_prefixes(self):
        self.clear()
        riesz_product(RUNNING, 6, 0.3)
        before = riesz._prefix_product.cache_info()
        riesz_product(RUNNING, 8, 0.3)
        after = riesz._prefix_product.cache_info()
        assert after.misses - before.misses == 2
        A, norms = self.loop_product(RUNNING, 0, 8, Fraction(0.3))
        P = riesz_product(RUNNING, 8, 0.3)
        assert P.matrix == A and P.per_step_norms == norms

    def test_list_roofs_and_float_frequencies(self):
        exact = riesz_product(
            RUNNING, 5, Fraction(0.3), (Fraction(3, 2), Fraction(1)), 64
        )
        for om in (0.3, Fraction(0.3), mp.mpf(0.3)):
            for rf in ([1.5, 1], (Fraction(3, 2), 1), [Fraction(3, 2), 1.0]):
                P = riesz_product(RUNNING, 5, om, rf, 64)
                assert P.omega == Fraction(0.3)
                assert P.roof == (Fraction(3, 2), Fraction(1))
                assert P.matrix == exact.matrix
                assert P.per_step_norms == exact.per_step_norms
        for b in (1, 2):
            w = iterate_word(RUNNING, b, 5)
            for a in (1, 2):
                got = complex(phi_suspension(RUNNING, [1.5, 1], a, b, 5, 0.3, 64))
                want = phi_suspension_direct(w, [1.5, 1], a, 0.3)
                assert abs(got - want) < 1e-9


class TestIntegerKernel:
    """The integer kernel against the mpc reference run at 2P + 32 bits."""

    ROOF = (Fraction(3, 2), Fraction(1, 3))

    @staticmethod
    def frequencies(bits):
        # denominators above 2**53; the tiny ones keep the products close to
        # the count-matrix powers while most phases round inexactly, so the
        # errors of many levels add up and the carried part of the bound is
        # needed
        q = 2 ** max(54, bits // 2 + 20) + 5
        tiny = tuple(Fraction(c, q) for c in (5, 7, 11))
        return (
            Fraction(1, 3) + Fraction(1, 2**60 + 1),
            Fraction(2**61 - 1, 2**62 + 3),
        ) + tiny

    @staticmethod
    def oracle_slack(zeta, n, bits):
        # the reference's own error, in units 2^-bits, far below one unit
        top = max(map(sum, _as_matrix(_count_power(zeta, n))))
        return Fraction((n + 1) * top, 2 ** (bits + 24))

    @pytest.mark.parametrize("bits", [64, 106, 400])
    @pytest.mark.parametrize("roofed", [False, True])
    @pytest.mark.parametrize(
        "zeta", [RUNNING, THUE_MORSE, SYMMETRIC], ids=["running", "tm", "sym"]
    )
    def test_products_within_reported_bounds(self, zeta, roofed, bits):
        roof = self.ROOF if roofed else None
        St = s_transpose(zeta)
        for om in self.frequencies(bits):
            n = 40 if om < Fraction(1, 2**32) else 20
            ref = reference_products(zeta, 0, n, om, roof, bits)
            P = riesz_product(zeta, n, om, roof, bits)
            for depth, (A, norm) in enumerate(ref, start=1):
                slack = self.oracle_slack(zeta, depth, bits)
                # each phase of the level is within half a unit per part,
                # plus 2^-10 units of evaluation error
                M = transfer_matrix(zeta, depth - 1, om, roof, bits).entries
                with mp.workprec(2 * bits + 32):
                    M_ref = reference_transfer(zeta, depth - 1, om, roof)
                for b in range(zeta.m):
                    for c in range(zeta.m):
                        got, want = units(M[b][c], bits), units(M_ref[b][c], bits)
                        tol = St[b][c] * (Fraction(1, 2) + Fraction(1, 2**10))
                        for g, w in zip(got, want):
                            assert abs(g - w) <= tol + slack
                # each product entry is within its entry of the error bound
                E = riesz._error_units(zeta, depth, bits)[0]
                got = shifted_product(zeta, 0, depth, om, roof, bits).matrix
                for b in range(zeta.m):
                    for c in range(zeta.m):
                        gx, gy = units(got[b][c], bits)
                        wx, wy = units(A[b][c], bits)
                        assert (gx - wx) ** 2 + (gy - wy) ** 2 <= (E[b][c] + slack) ** 2
                err = abs(Fraction(P.per_step_norms[depth - 1]) - riesz.as_exact(norm))
                assert err <= Fraction(P.norm_errors[depth - 1]) + slack / 2**bits

    def test_product_step_rounds_each_entry_to_nearest(self):
        om = Fraction(2**61 - 1, 2**62 + 3)
        for bits in (64, 106, 400):
            A = riesz._transfer_matrix(SYMMETRIC, 5, om, None, bits)
            B = riesz._prefix_product(SYMMETRIC, 0, 5, om, None, bits)[0]
            got = riesz._mul(A, B, bits)
            for i in range(2):
                for j in range(2):
                    # the exact product at scale 2^-(2 bits)
                    pairs = [(A[i][t], B[t][j]) for t in range(2)]
                    re = sum(a * c - b * d for (a, b), (c, d) in pairs)
                    im = sum(a * d + b * c for (a, b), (c, d) in pairs)
                    for g, w in zip(got[i][j], (re, im)):
                        assert abs(Fraction(w, 2**bits) - g) <= Fraction(1, 2)

    def test_shifted_product_within_reported_bounds(self):
        om, bits = Fraction(2**61 - 1, 2**62 + 3), 106
        for roof in (None, self.ROOF):
            ref = reference_products(SYMMETRIC, 3, 12, om, roof, bits)
            P = shifted_product(SYMMETRIC, 3, 12, om, roof, bits)
            for depth, (_, norm) in enumerate(ref, start=1):
                slack = self.oracle_slack(SYMMETRIC, depth, bits)
                err = abs(Fraction(P.per_step_norms[depth - 1]) - riesz.as_exact(norm))
                assert err <= Fraction(P.norm_errors[depth - 1]) + slack / 2**bits

    def test_error_bounds_shrink_with_precision(self):
        a = riesz_product(RUNNING, 9, Fraction(1, 7), None, 80)
        b = riesz_product(RUNNING, 9, Fraction(1, 7), None, 81)
        assert all(0 < x < y for x, y in zip(b.norm_errors, a.norm_errors))

    def test_deep_cold_entry_fills_the_memo_in_strides(self):
        # a cold depth-1030 entry would recurse past the interpreter's limit
        # if every depth were filled from the bottom in one recursion; past
        # depth 1023 the Thue-Morse norms leave the float range
        om = Fraction(5, 2**1100 + 3)
        TestMemoisation.clear()
        try:
            got = phi_recursive(THUE_MORSE, 1, 2, 1030, om)
            P = riesz_product(THUE_MORSE, 1030, om)
            assert got == P.matrix[1][0]
            assert math.isfinite(P.per_step_norms[1020])
            assert P.per_step_norms[-1] == P.norm_errors[-1] == math.inf
        finally:
            TestMemoisation.clear()

    def test_quarter_turn_phases_are_exact(self):
        # at level 0 of Thue-Morse the phases are 1 and e^(-2 pi i omega)
        cases = ((Fraction(1, 4), -1j), (Fraction(1, 2), -1), (Fraction(3, 4), 1j))
        for om, z in cases:
            for bits in (64, 106, 400):
                M = transfer_matrix(THUE_MORSE, 0, om, None, bits).entries
                assert M == ((1, z), (z, 1))

    def test_threads_give_identical_products(self):
        # level-word sums at two precisions and Birkhoff sums as well: none
        # of them may read or leave a global precision
        oms = [Fraction(k, 100003) for k in range(1, 57 * 37, 37)]
        assert len(oms) == 57
        roof = (Fraction(3, 2), Fraction(1, 3))
        pref = fixed_point_prefix(RUNNING, 200)

        def run(order):
            return [
                (om, pickle.dumps((
                    P.matrix, P.per_step_norms, P.norm_errors,
                    phi_of_level_word(RUNNING, "12", 6, 1, om, precision_bits=200),
                    phi_of_level_word(RUNNING, "2112", 3, 2, om, roof, 80),
                    birkhoff_twisted(RUNNING, (1, -1), pref, omega=om),
                )))
                for om in order
                for P in (riesz_product(RUNNING, 14, om),)
            ]

        prec = mp.mp.prec
        TestMemoisation.clear()
        single = sorted(run(oms), key=lambda t: t[0])
        TestMemoisation.clear()
        orders = [oms[i * 9:] + oms[: i * 9] for i in range(6)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                futures = [pool.submit(run, order) for order in orders]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(old)
        for res in results:
            assert sorted(res, key=lambda t: t[0]) == single
        assert mp.mp.prec == prec


# ---------------------------------------------------------------------------
# recursive twisted sums


class TestPhiRecursive:
    def test_level_zero_is_kronecker(self):
        for a in (1, 2):
            for b in (1, 2):
                got = phi_recursive(RUNNING, a, b, 0, 0.3)
                assert got == (1 if a == b else 0)

    def test_zero_frequency_counts(self):
        S = np.array(_as_matrix(substitution_matrix(RUNNING)))
        for n in range(6):
            Sn = np.linalg.matrix_power(S, n)
            for a in (1, 2):
                for b in (1, 2):
                    got = phi_recursive(RUNNING, a, b, n, 0)
                    assert abs(complex(got) - Sn[a - 1][b - 1]) < 1e-25

    def test_running_example_against_oracle(self):
        got = complex(phi_recursive(RUNNING, 1, 1, 3, 0.3))
        want = phi_direct(iterate_word(RUNNING, 1, 3), 1, 0.3)
        assert abs(got - want) < 1e-9


class TestPhiSuspension:
    def test_unit_roof_reduces_with_phase_factor(self):
        om = 0.313
        factor = cmath.exp(-2j * cmath.pi * om)
        for n in range(6):
            for a in (1, 2):
                for b in (1, 2):
                    disc = complex(phi_recursive(RUNNING, a, b, n, om))
                    susp = complex(phi_suspension(RUNNING, (1, 1), a, b, n, om))
                    assert abs(susp - factor * disc) < 1e-12

    def test_zero_frequency_counts(self):
        roof = (Fraction(3, 2), Fraction(1, 3))
        S = np.array(_as_matrix(substitution_matrix(RUNNING)))
        for n in range(6):
            Sn = np.linalg.matrix_power(S, n)
            for a in (1, 2):
                for b in (1, 2):
                    got = complex(phi_suspension(RUNNING, roof, a, b, n, 0))
                    assert abs(got - Sn[a - 1][b - 1]) < 1e-25

    def test_rational_roof_against_oracle(self):
        roof = (Fraction(3, 2), Fraction(1, 3))
        for n in range(7):
            for om in (0.26, 5 / 7):
                for a in (1, 2):
                    for b in (1, 2):
                        got = complex(phi_suspension(RUNNING, roof, a, b, n, om))
                        want = phi_suspension_direct(
                            iterate_word(RUNNING, b, n), roof, a, om
                        )
                        assert abs(got - want) < 1e-9

    def test_self_similar_roof_against_oracle(self):
        # roof proportional to (theta, 1) reproduces itself under the level
        # map; use an exact rational approximation of theta so the recursion
        # and the brute-force sum see identical inputs
        pd = perron_data(substitution_matrix(RUNNING), 128)
        lo, hi = pd.theta_interval
        roof = ((lo + hi) / 2, Fraction(1))
        for n in range(8):
            for om in (0.17, 0.83):
                for a in (1, 2):
                    got = complex(phi_suspension(RUNNING, roof, a, 1, n, om))
                    want = phi_suspension_direct(
                        iterate_word(RUNNING, 1, n), roof, a, om
                    )
                    assert abs(got - want) < 1e-9

    def test_roof_validation(self):
        with pytest.raises(ValueError):
            phi_suspension(RUNNING, (1,), 1, 1, 2, 0.3)
        with pytest.raises(ValueError):
            phi_suspension(RUNNING, (1, 0), 1, 1, 2, 0.3)
        with pytest.raises(ValueError):
            phi_suspension(RUNNING, (1, -2), 1, 1, 2, 0.3)


class TestPhiOfLevelWord:
    def test_concatenation_against_oracle(self):
        roof = (Fraction(3, 2), Fraction(1, 3))
        for level in range(5):
            for w in [(1,), (2, 1), (1, 2, 2, 1), (2, 2, 2)]:
                full = sum((iterate_word(RUNNING, c, level) for c in w), ())
                for om in (0.17, 2 / 3):
                    for a in (1, 2):
                        got = complex(phi_of_level_word(RUNNING, w, level, a, om))
                        assert abs(got - phi_direct(full, a, om)) < 1e-9
                        gots = complex(
                            phi_of_level_word(RUNNING, w, level, a, om, roof=roof)
                        )
                        wants = phi_suspension_direct(full, roof, a, om)
                        assert abs(gots - wants) < 1e-9


ROW_OMEGAS = (Fraction(5, 17), Fraction(2**61 - 1, 2**62 + 3))
ROW_ROOFS = {
    RUNNING: (Fraction(3, 2), Fraction(1, 3)),
    THUE_MORSE: (Fraction(1), Fraction(5, 7)),
    TRIBONACCI: (Fraction(1, 2), Fraction(2), Fraction(3, 5)),
}


def level_word_misses(bits=106):
    """The cases where ``phi_of_level_word`` leaves its stated bound around
    the reference at 2 * bits + 32 bits (whose own error stays far below one
    unit 2^-bits, the slack allowed for it); the deepest level is cold, past
    ``_STRIDE``."""
    for zeta, roof in ROW_ROOFS.items():
        words = [(1,), (2, 1, 1), tuple(iterate_word(zeta, 1, 3))]
        for level in (0, 1, 5, riesz._STRIDE + 6):
            if level > riesz._STRIDE:
                TestMemoisation.clear()
                words = words[1:2]
            for rf in (None, roof):
                for w in words:
                    for om in ROW_OMEGAS:
                        for a in range(1, zeta.m + 1):
                            got = phi_of_level_word(zeta, w, level, a, om, rf, bits)
                            want = reference_level_word(zeta, w, level, a, om, rf, bits)
                            offset = 0 if rf is None else rf[a - 1]
                            bound = row_bound(zeta, [(w, level, offset)], bits)[a - 1]
                            if dist2(got, want) > Fraction(bound + 1, 2**bits) ** 2:
                                yield zeta, w, level, a, om, rf


def birkhoff_misses(bits=106):
    """The cases where ``birkhoff_twisted`` leaves its stated bound around
    the reference: the coefficient-weighted row bounds, one rounding of each
    part of the result, and one unit for the reference."""
    for zeta, f in (
        (RUNNING, (2.0, -1.5)),
        (THUE_MORSE, (1, -1)),
        (TRIBONACCI, (1 + 2j, -0.5, 0.75)),
    ):
        for n in (1, 7, 53, 400):
            word = fixed_point_prefix(zeta, n)
            bounds = row_bound(zeta, decomposition_pieces(zeta, word), bits)
            for om in ROW_OMEGAS:
                got = birkhoff_twisted(zeta, f, word, omega=om, precision_bits=bits)
                want = reference_birkhoff(zeta, f, word, om, bits)
                size = abs(riesz.as_exact(got.real)) + abs(riesz.as_exact(got.imag))
                bound = size + 1 + sum(
                    (abs(Fraction(d.real)) + abs(Fraction(d.imag))) * e
                    for d, e in zip(f, bounds)
                )
                if dist2(got, want) > (bound / 2**bits) ** 2:
                    yield zeta, f, n, om


def mutated_row(mutation):
    """A copy of ``riesz._twisted_row`` with one fault: the phase taken one
    letter short of the exact offset, level-0 pieces skipped, or each phase
    conjugated."""

    def row(zeta, pieces, om, rf, bits):
        total = [(0, 0)] * zeta.m
        for w, level, offset in pieces:
            if not w or (mutation == "skip_level0" and level == 0):
                continue
            den, lens = riesz._scaled_lengths(zeta, level, rf)
            p, q = om.numerator, om.denominator * den
            t = int(offset * den)
            re = [0] * zeta.m
            im = [0] * zeta.m
            for c in w:
                short = lens[c - 1] if mutation == "offset_short" else 0
                x, y = riesz._phase(p * (t - short) % q, q, bits)
                re[c - 1] += x
                im[c - 1] += -y if mutation == "conjugate" else y
                t += lens[c - 1]
            row = tuple(zip(re, im))
            if level:
                row = riesz._mul((row,), riesz._product(zeta, level, om, rf, bits), bits)[0]
            total = [(x + u, y + v) for (x, y), (u, v) in zip(total, row)]
        return total

    return row


class TestTwistedRow:
    def test_level_words_within_bound_of_reference(self):
        assert list(level_word_misses()) == []

    def test_birkhoff_sums_within_bound_of_reference(self):
        assert list(birkhoff_misses()) == []

    @pytest.mark.parametrize("mutation", ["offset_short", "skip_level0", "conjugate"])
    def test_mutated_rows_fail(self, mutation, monkeypatch):
        row = mutated_row(mutation)
        monkeypatch.setattr(riesz, "_twisted_row", row)
        monkeypatch.setattr(spectral, "_twisted_row", row)
        assert next(level_word_misses(), None) is not None
        assert next(birkhoff_misses(), None) is not None


# ---------------------------------------------------------------------------
# density


class TestRieszDensity:
    @settings(max_examples=25, deadline=None)
    @given(om=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
    def test_hermitian_psd(self, om):
        D = riesz_density(RUNNING, 5, om)
        Dc = np.array([[complex(D[i][j]) for j in range(2)] for i in range(2)])
        assert np.allclose(Dc, Dc.conj().T, atol=1e-25)
        assert (np.linalg.eigvalsh(Dc) > -1e-20).all()

    def test_zero_frequency_diagonal_positive_and_growing(self):
        pd = perron_data(substitution_matrix(RUNNING), 64)
        theta = float(pd.theta)
        prev = None
        for n in (6, 7, 8):
            D = riesz_density(RUNNING, n, 0, pd=pd)
            d = complex(D[0][0]).real
            assert d > 0
            if prev is not None:
                assert abs(d / prev - theta) < 0.35 * theta
            prev = d

    def test_zero_frequency_formula(self):
        # diag entry at 0: theta^-n * sum_j count(a in image_n(j))^2 / norm
        pd = perron_data(substitution_matrix(RUNNING), 64)
        n = 5
        S = np.array(_as_matrix(substitution_matrix(RUNNING)))
        Sn = np.linalg.matrix_power(S, n)
        norm = float(sum(pd.r_vec)) * float(sum(pd.l_vec))
        for a in (1, 2):
            want = sum(int(Sn[a - 1][j]) ** 2 for j in range(2)) / (
                float(pd.theta) ** n * norm
            )
            got = complex(riesz_density(RUNNING, n, 0, pd=pd)[a - 1][a - 1]).real
            assert abs(got - want) < 1e-9

    def test_fourier_coefficients_are_autocorrelation_counts(self):
        n = 4
        words = [iterate_word(RUNNING, b, n) for b in (1, 2)]
        L = max(len(w) for w in words)
        G = 2 * L + 1
        pd = perron_data(substitution_matrix(RUNNING), 64)
        theta = float(pd.theta)
        norm = float(sum(pd.r_vec)) * float(sum(pd.l_vec))
        samples = [
            complex(riesz_density(RUNNING, n, Fraction(t, G), pd=pd)[0][0])
            for t in range(G)
        ]
        for k in (0, 1, 5, 11):
            acc = sum(
                samples[t] * cmath.exp(2j * cmath.pi * k * t / G) for t in range(G)
            ) / G
            count = 0
            for w in words:
                pos = {j for j, c in enumerate(w) if c == 1}
                count += sum(1 for j in pos if j - k in pos)
            want = count / (theta**n * norm)
            assert abs(acc - want) < 1e-9
