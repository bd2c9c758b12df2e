"""Tests for exact Diophantine sequences, window escape, the decaying
product, and the Erdos-Kahane prediction/counting apparatus.

Oracles: high-precision mpmath recomputation of t*theta^k (independent of
the exact ring arithmetic under test), integer recurrences for nearest
integers (Lucas numbers for the golden ratio), and numpy for matrix norms.
The integer kernels of the split, the window check, the decaying product
and the step prediction are compared byte for byte (pickles) with the
``Fraction`` and per-call matrix loops they replaced, kept below as
reference functions: the split with one reduced ``Fraction`` per term and
its least common denominator, ``Fraction`` prefix sums and window maxima.
"""

from __future__ import annotations

import math
import pickle
import random
from collections import deque
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import libmp

from subspectral import algebraic, diophantine
from subspectral.algebraic import (
    AlgebraicInteger,
    ZThetaElement,
    prop_alg_constants,
    zt_mul_theta,
    zt_value_interval,
)
from subspectral.diophantine import (
    EKConstants,
    EKPrediction,
    WindowEscapeReport,
    WindowVerdict,
    companion_matrix,
    ek_constants,
    ek_dimension_bound,
    ek_frequency,
    ek_step_predict,
    pisot_sequence,
    prop_alg_product,
    window_escape_check,
)
from subspectral.errors import (
    PrecisionExhausted,
    RepeatedEigenvalue,
    WrongClass,
    ZeroEigenvalue,
)

RUNNING = (1, -1, -3)  # x^2 - x - 3, dominant root (1 + sqrt 13)/2
GOLDEN = (1, -1, -1)  # x^2 - x - 1, golden ratio
CUBIC = (1, 0, -1, -2)  # x^3 - x - 2, complex pair of modulus > 1
QUARTIC = (1, 0, 0, -1, -3)  # x^4 - x - 3, all conjugates outside
ROOTS_2_3 = (1, -5, 6)  # (x - 2)(x - 3): t = 1/2 pins 3^k / 2 at Z + 1/2
MIXED = (1, -1, -2)  # (x - 2)(x + 1): t = k/4 puts 2t on Z + 1/2, 4t on Z
LINEAR = (1, -3)  # x - 3: every term has rational coordinates
DENOM = 100003  # the prime denominator of the benchmark's t values
RND = libmp.round_nearest


@pytest.fixture(scope="module")
def running() -> AlgebraicInteger:
    return AlgebraicInteger.from_poly(RUNNING)


@pytest.fixture(scope="module")
def golden() -> AlgebraicInteger:
    return AlgebraicInteger.from_poly(GOLDEN)


def _theta_oracle(poly, bits=300):
    """Dominant real root via plain mpmath polyroots (independent route)."""
    with mp.workprec(bits):
        roots = mp.polyroots([mp.mpf(c) for c in poly], maxsteps=200,
                             extraprec=200)
        real = [mp.re(r) for r in roots if abs(mp.im(r)) < mp.mpf(2) ** -100]
        return max(real)


def _frac_dist_oracle(x):
    """|x - nearest integer| for an mpf at its working precision."""
    return abs(x - mp.nint(x))


class TestCompanionMatrix:
    def test_running_example(self, running):
        assert companion_matrix(running) == ((0, 1), (3, 1))
        assert companion_matrix(RUNNING) == ((0, 1), (3, 1))

    def test_cubic(self):
        # x^3 - 2x^2 + 5: b1 = 2, b2 = 0, b3 = -5
        assert companion_matrix([1, -2, 0, 5]) == (
            (0, 1, 0),
            (0, 0, 1),
            (-5, 0, 2),
        )

    @given(
        a=st.integers(-50, 50),
        b=st.integers(-50, 50),
    )
    @settings(max_examples=50, deadline=None)
    def test_row_action_is_multiplication_by_theta(self, a, b):
        # row vector of coordinates times the companion matrix equals the
        # coordinates of theta * x
        ai = AlgebraicInteger.from_poly(RUNNING)
        C = companion_matrix(ai)
        x = ZThetaElement((a, b))
        prod = tuple(
            sum(x.coords[i] * C[i][j] for i in range(2)) for j in range(2)
        )
        assert prod == zt_mul_theta(x, ai).coords


class TestPisotSequence:
    def test_running_first_values(self, running):
        seq = pisot_sequence(running, 1, 5)
        assert seq.K == (1, 2, 5, 12, 28)
        assert seq.eps[0] == 0
        # theta - 2 and theta^2 - 5 are both theta - 2 = 0.3027756...
        with mp.workprec(200):
            theta = _theta_oracle(RUNNING)
            expected = float(theta - 2)
        for k in (1, 2):
            assert abs(float(seq.eps[k]) - expected) < 1e-10

    def test_running_against_oracle(self, running):
        N = 40
        seq = pisot_sequence(running, 1, N, err=Fraction(1, 2**80))
        with mp.workprec(400):
            theta = _theta_oracle(RUNNING, bits=400)
            x = mp.mpf(1)
            for k in range(N):
                K_o = int(mp.nint(x))
                assert seq.K[k] == K_o
                eps_o = x - K_o
                assert abs(mp.mpf(float(seq.eps[k])) - eps_o) < mp.mpf(1e-12)
                x *= theta

    def test_golden_lucas_numbers(self, golden):
        # phi^k = L_k - (-1/phi)^k with Lucas numbers L; the correction is
        # below 1/2 for k >= 2, so K_k = L_k there
        N = 30
        seq = pisot_sequence(golden, 1, N)
        lucas = [2, 1]
        while len(lucas) < N:
            lucas.append(lucas[-1] + lucas[-2])
        assert seq.K[0] == 1  # t itself
        assert seq.K[1] == 2  # phi = 1.618 rounds up, L_1 + 1
        for k in range(2, N):
            assert seq.K[k] == lucas[k]
        assert seq.K[10] == 123
        # eps_k = (-1)^(k+1) phi^(-k) for k >= 2
        with mp.workprec(200):
            phi = (1 + mp.sqrt(5)) / 2
            for k in range(2, N):
                expected = (-1) ** (k + 1) * phi ** (-k)
                assert abs(mp.mpf(float(seq.eps[k])) - expected) < 1e-12

    def test_golden_tenth_power_distance(self, golden):
        seq = pisot_sequence(golden, 1, 11)
        with mp.workprec(200):
            phi = (1 + mp.sqrt(5)) / 2
            expected = float(_frac_dist_oracle(phi**10))
        assert abs(abs(float(seq.eps[10])) - expected) < 1e-10
        assert abs(expected - 0.0081306188) < 1e-9

    def test_integer_t_starts_exact(self, running):
        seq = pisot_sequence(running, 7, 3)
        assert seq.K[0] == 7
        assert seq.eps[0] == 0
        assert seq.denom == 1

    def test_rational_t(self, running):
        seq = pisot_sequence(running, Fraction(1, 3), 12)
        assert seq.denom == 3
        with mp.workprec(300):
            theta = _theta_oracle(RUNNING)
            x = mp.mpf(1) / 3
            for k in range(12):
                assert seq.K[k] == int(mp.nint(x))
                assert abs(mp.mpf(float(seq.eps[k])) - (x - seq.K[k])) < 1e-10
                x *= theta

    def test_float_and_mpf_t_are_exact_binary(self, running):
        for t in (0.75, mp.mpf("0.75")):
            seq = pisot_sequence(running, t, 6)
            assert seq.denom == 4
            assert seq.K[0] == 1  # 0.75 rounds to 1
            assert seq.eps[0] == Fraction(-1, 4)

    @pytest.mark.parametrize("t", [mp.inf, -mp.inf, mp.nan])
    def test_non_finite_mpf_t_is_refused(self, running, t):
        with pytest.raises(ValueError):
            pisot_sequence(running, t, 5)
        with pytest.raises(ValueError):
            prop_alg_product(running, t, 20)
        with pytest.raises(ValueError):
            window_escape_check(running, t, k_max=4)

    @pytest.mark.parametrize(
        "t", [mp.mpf("0.75"), mp.mpf(3) / 7, mp.mpf(2) ** 100 / 3 + 1]
    )
    def test_finite_mpf_t_equals_its_fraction(self, running, t):
        sign, man, exp, _ = t._mpf_
        f = Fraction(int(man)) * Fraction(2) ** int(exp) * (-1 if sign else 1)
        assert pisot_sequence(running, t, 12) == pisot_sequence(running, f, 12)
        assert prop_alg_product(running, t, 30) == prop_alg_product(running, f, 30)
        got = window_escape_check(running, t, k_max=6)
        assert got == window_escape_check(running, f, k_max=6)

    def test_ring_element_t_shifts_by_one(self, running):
        base = pisot_sequence(running, 1, 11)
        shifted = pisot_sequence(running, ZThetaElement((0, 1)), 10)
        assert shifted.K == base.K[1:]
        assert shifted.eps == base.eps[1:]

    def test_tie_rounds_half_up(self, running):
        seq = pisot_sequence(running, Fraction(1, 2), 4)
        assert seq.K[0] == 1
        assert seq.eps[0] == Fraction(-1, 2)

    def test_eps_range_and_exact_coordinates(self, running):
        seq = pisot_sequence(running, Fraction(5, 7), 15)
        x = ZThetaElement.from_int(5, 2)
        for k in range(15):
            assert Fraction(-1, 2) <= seq.eps[k] < Fraction(1, 2)
            # exact residue coordinates: x_k - K_k * q in the ring
            expect = (x.coords[0] - seq.K[k] * 7,) + x.coords[1:]
            assert seq.eps_num[k].coords == expect
            x = zt_mul_theta(x, running)

    def test_eps_num_value_matches_eps(self, running):
        seq = pisot_sequence(running, 1, 20, err=Fraction(1, 2**60))
        for k in range(20):
            lo, hi = zt_value_interval(seq.eps_num[k], running, 200)
            assert lo - seq.err <= seq.eps[k] <= hi + seq.err

    def test_views_are_built_on_first_read_and_not_pickled(self, running):
        seq = pisot_sequence(running, Fraction(7, 5), 30)
        before = pickle.dumps(seq)
        assert "eps" not in vars(seq) and "eps_num" not in vars(seq)
        assert seq.eps == tuple(Fraction(n, seq.D) for n in seq.nums)
        assert seq.eps_num[3] is seq.eps_num[3]
        assert pickle.dumps(seq) == before
        copy = pickle.loads(before)
        assert copy == seq
        assert (copy.eps, copy.eps_num) == (seq.eps, seq.eps_num)
        assert len(copy) == 30

    def test_err_is_honored(self, golden):
        err = Fraction(1, 2**80)
        seq = pisot_sequence(golden, 1, 25, err=err)
        with mp.workprec(400):
            phi = (1 + mp.sqrt(5)) / 2
            x = mp.mpf(1)
            for k in range(25):
                true_eps = x - mp.nint(x)
                approx = mp.mpf(seq.eps[k].numerator) / seq.eps[k].denominator
                assert abs(approx - true_eps) <= mp.mpf(
                    err.numerator
                ) / err.denominator * (1 + mp.mpf(2) ** -40)
                x *= phi

    def test_length_and_validation(self, running):
        assert len(pisot_sequence(running, 1, 7)) == 7
        with pytest.raises(ValueError):
            pisot_sequence(running, 1, 0)
        with pytest.raises(ValueError):
            pisot_sequence(running, 1, 10**5 + 1)
        with pytest.raises(ValueError):
            pisot_sequence(running, 1, 5, err=Fraction(0))
        with pytest.raises(ValueError):
            pisot_sequence(running, float("inf"), 5)
        with pytest.raises(TypeError):
            pisot_sequence(running, "3", 5)
        with pytest.raises(ValueError):
            pisot_sequence(running, ZThetaElement((1, 2, 3)), 5)

    @given(t=st.integers(1, 40))
    @settings(max_examples=25, deadline=None)
    def test_integer_t_recurrence_identity(self, t):
        # K_{k+2} - K_{k+1} - 3 K_k must absorb the fractional parts: the
        # same combination of eps values is its exact negative
        ai = AlgebraicInteger.from_poly(RUNNING)
        seq = pisot_sequence(ai, t, 8)
        for k in range(6):
            lhs = seq.K[k + 2] - seq.K[k + 1] - 3 * seq.K[k]
            comb = tuple(
                seq.eps_num[k + 2].coords[i]
                - seq.eps_num[k + 1].coords[i]
                - 3 * seq.eps_num[k].coords[i]
                for i in range(2)
            )
            assert comb == (-lhs, 0)


class TestWindowEscape:
    def test_running_t1_all_windows_pass(self, running):
        rep = window_escape_check(running, 1, k_max=50)
        assert rep.beta == 8
        assert rep.delta1 == Fraction(1, 7)
        assert rep.k0 == 1
        assert rep.k0_empirical
        assert not rep.hypothesis_violated
        assert rep.first_violation is None
        assert len(rep.verdicts) == 50
        for v in rep.verdicts:
            assert v.passed
            assert v.k <= v.argmax < 8 * v.k
            assert v.max_eps >= 1 / 7

    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    def test_running_many_integer_t(self, running, t):
        rep = window_escape_check(running, t, k_max=20)
        assert rep.first_violation is None
        assert all(v.passed for v in rep.verdicts)

    @pytest.mark.parametrize(
        "poly,k_max",
        [(CUBIC, 12), (QUARTIC, 15)],
    )
    def test_higher_degree_windows_pass(self, poly, k_max):
        ai = AlgebraicInteger.from_poly(poly)
        rep = window_escape_check(ai, 1, k_max=k_max)
        assert rep.first_violation is None
        assert all(v.passed for v in rep.verdicts)

    def test_rational_t(self, running):
        rep = window_escape_check(running, Fraction(3, 2), k_max=15)
        assert rep.first_violation is None

    def test_wrong_class_refused(self, golden):
        with pytest.raises(WrongClass):
            window_escape_check(golden, 1, k_max=10)
        salem = AlgebraicInteger.from_poly((1, -1, -1, -1, 1))
        with pytest.raises(WrongClass):
            window_escape_check(salem, 1, k_max=5)

    def test_golden_diagnostic_fails_windows(self, golden):
        rep = window_escape_check(
            golden, 1, k0=5, k_max=20, diagnostic=True, beta_override=3
        )
        assert rep.hypothesis_violated
        assert rep.beta == 3
        assert rep.first_violation == 5
        assert not any(v.passed for v in rep.verdicts)
        # ||phi^k|| -> 0 geometrically, so window maxima collapse
        assert rep.verdicts[-1].max_eps < 1e-3

    def test_empirical_k0_skips_failures(self, golden):
        rep = window_escape_check(
            golden, 1, k_max=10, diagnostic=True, beta_override=2
        )
        assert rep.k0_empirical
        failing_scan = [
            v.k for v in window_escape_check(
                golden, 1, k0=1, k_max=10, diagnostic=True, beta_override=2
            ).verdicts if not v.passed
        ]
        if failing_scan:
            assert rep.k0 == max(failing_scan) + 6

    def test_pinned_k0_beyond_range(self, running):
        rep = window_escape_check(running, 1, k0=60, k_max=50)
        assert rep.verdicts == ()
        assert not rep.k0_empirical

    def test_validation(self, running, golden):
        with pytest.raises(ValueError):
            window_escape_check(running, 1, k_max=0)
        with pytest.raises(ValueError):
            window_escape_check(
                golden, 1, diagnostic=True, beta_override=1, k_max=5
            )

    def test_deterministic(self, running):
        a = window_escape_check(running, 1, k_max=12)
        b = window_escape_check(running, 1, k_max=12)
        assert a == b


class TestPropAlgProduct:
    def test_running_value_against_oracle(self, running):
        N = 100
        rep = prop_alg_product(running, 1, N)
        with mp.workprec(400):
            theta = _theta_oracle(RUNNING, bits=400)
            x = mp.mpf(1)
            total = mp.mpf(0)
            for _ in range(N):
                total += _frac_dist_oracle(x) ** 2
                x *= theta
            expected = mp.exp(-total)
            assert abs(mp.mpf(float(rep.value)) - expected) < mp.mpf(1e-12)
        assert not rep.hypothesis_violated
        assert float(rep.alpha) == pytest.approx(
            (1 / 49) / math.log(8), rel=1e-12
        )

    def test_values_monotone_and_consistent(self, running):
        rep = prop_alg_product(running, 1, 150)
        assert len(rep.values) == 150
        for a, b in zip(rep.values, rep.values[1:]):
            assert b <= a * (1 + 1e-15)
        assert rep.values[-1] == pytest.approx(float(rep.value), rel=1e-12)
        assert float(rep.value) == pytest.approx(
            math.exp(float(rep.log_value)), rel=1e-10
        )

    def test_power_law_bound_out_of_sample(self, running):
        rep = prop_alg_product(running, 1, 300)
        assert rep.bound_ok
        assert rep.fitted_exponent < 0
        assert float(rep.fitted_C) > 0

    def test_branch_t_at_least_one(self, running):
        rep = prop_alg_product(running, 3, 60)
        assert rep.branch == "t>=1"
        assert rep.branch_min_n == 1
        with mp.workprec(120):
            expected = float(mp.log(4) ** (1 / mp.log(8)))
        assert float(rep.t_factor) == pytest.approx(expected, rel=1e-10)

    def test_small_t_branch_threshold(self, running):
        rep = prop_alg_product(running, Fraction(1, 10), 80)
        assert rep.branch == "small-t"
        assert float(rep.t_factor) == 1.0
        with mp.workprec(200):
            theta = _theta_oracle(RUNNING)
            j = int(mp.ceil(mp.log(10) / mp.log(theta)))
        assert rep.branch_min_n == 2 * j

    def test_small_t_just_below_one(self, running):
        rep = prop_alg_product(running, Fraction(99, 100), 40)
        assert rep.branch == "small-t"
        assert rep.branch_min_n == 2  # t * theta >= 1 already at j = 1

    def test_wrong_class_and_diagnostic(self, golden):
        with pytest.raises(WrongClass):
            prop_alg_product(golden, 1, 50)
        rep = prop_alg_product(golden, 1, 500, diagnostic=True)
        assert rep.hypothesis_violated
        assert rep.alpha is None and rep.bound_ok is None
        # ||phi^k||^2 is summable: the product stays bounded below
        with mp.workprec(600):
            phi = (1 + mp.sqrt(5)) / 2
            x = mp.mpf(1)
            total = mp.mpf(0)
            for _ in range(500):
                total += _frac_dist_oracle(x) ** 2
                x *= phi
            expected = float(mp.exp(-total))
        assert float(rep.value) == pytest.approx(expected, rel=1e-10)
        assert float(rep.value) > 0.6

    def test_validation(self, running):
        with pytest.raises(ValueError):
            prop_alg_product(running, -2, 50)


def _vandermonde_oracle(zs):
    """Infinity norms of the Vandermonde matrix and its inverse via numpy."""
    m = len(zs)
    V = np.array([[complex(z) ** i for z in zs] for i in range(m)])
    Vinv = np.linalg.inv(V)
    return (
        np.linalg.norm(V, np.inf),
        np.linalg.norm(Vinv, np.inf),
    )


class TestEKConstants:
    def test_integer_pair_exact(self):
        ek = ek_constants((2, 1))
        assert ek.L == 20
        assert float(ek.L_exact) == 20
        assert float(ek.vandermonde_norm) == 3
        assert float(ek.vandermonde_inv_norm) == pytest.approx(3, abs=1e-30)
        assert float(ek.rho) == pytest.approx(1 / 38, abs=1e-18)
        assert float(ek.theta1) == 2

    def test_running_pair_against_numpy(self):
        with mp.workprec(120):
            th1 = float((1 + mp.sqrt(13)) / 2)
            th2 = float((1 - mp.sqrt(13)) / 2)
        ek = ek_constants((th1, th2))
        n_o, i_o = _vandermonde_oracle((th1, th2))
        assert float(ek.vandermonde_norm) == pytest.approx(n_o, rel=1e-12)
        assert float(ek.vandermonde_inv_norm) == pytest.approx(i_o, rel=1e-12)
        assert float(ek.theta1) == pytest.approx(th1, rel=1e-15)
        expect_L = math.ceil(th1 * n_o * i_o + 2 - 1e-12)
        assert ek.L == expect_L
        assert float(ek.rho) == pytest.approx(
            1 / (2 * (1 + th1 * n_o * i_o)), rel=1e-10
        )

    def test_complex_triple_against_numpy(self):
        zs = (2, 1 + 1j, 1 - 1j)
        ek = ek_constants(zs)
        n_o, i_o = _vandermonde_oracle(zs)
        assert float(ek.vandermonde_norm) == pytest.approx(n_o, rel=1e-10)
        assert float(ek.vandermonde_inv_norm) == pytest.approx(i_o, rel=1e-10)
        assert 0 < float(ek.rho) < 0.5
        assert ek.L >= 3

    def test_degenerate_inputs(self):
        with pytest.raises(RepeatedEigenvalue):
            ek_constants((2, 2))
        with pytest.raises(ZeroEigenvalue):
            ek_constants((2, 0))
        with pytest.raises(ValueError):
            ek_constants(())

    def test_dimension_bound(self):
        v = ek_dimension_bound(20, 2, 5, 2.0)
        assert v == pytest.approx(
            math.log(2 * 20**3 * 5) / (5 * math.log(2)), rel=1e-12
        )
        assert ek_dimension_bound(20, 2, 50, 2.0) < v
        with pytest.raises(ValueError):
            ek_dimension_bound(20, 2, 0, 2.0)
        with pytest.raises(ValueError):
            ek_dimension_bound(20, 2, 5, 1.0)


class TestEKStepPredict:
    def test_exact_integer_sequences(self):
        # K_n = A 2^n + B satisfies K_{n+2} = 3 K_{n+1} - 2 K_n exactly;
        # every window has eps = 0, so predictions must all be unique hits
        ek = ek_constants((2, 1))
        checked = 0
        for A in range(1, 6):
            for B in range(-5, 6):
                K = [A * 2**n + B for n in range(12)]
                for i in range(10):
                    pred = ek_step_predict(K[i : i + 2], ek)
                    assert len(pred.candidates) <= ek.L
                    assert K[i + 2] in pred.candidates
                    assert pred.best == K[i + 2]
                    assert pred.unique
                    checked += 1
        assert checked == 550

    def test_golden_ratio_windows(self, golden):
        # K_k = nearest integer to phi^k; fractional parts decay below rho,
        # after which unique predictions must reproduce the Lucas recurrence
        with mp.workprec(200):
            phi = (1 + mp.sqrt(5)) / 2
            phi2 = (1 - mp.sqrt(5)) / 2
            ek = ek_constants((phi, phi2))
        seq = pisot_sequence(golden, 1, 30)
        rho = float(ek.rho)
        hits = 0
        for i in range(28):
            if max(abs(float(seq.eps[i])), abs(float(seq.eps[i + 1]))) < rho:
                pred = ek_step_predict(list(seq.K[i : i + 2]), ek)
                assert len(pred.candidates) <= ek.L
                assert seq.K[i + 2] in pred.candidates
                if pred.unique:
                    assert pred.best == seq.K[i + 2]
                    hits += 1
        assert hits > 10

    def test_zero_window(self):
        ek = ek_constants((2, 1))
        pred = ek_step_predict([0, 0], ek)
        assert pred.best == 0
        assert 0 in pred.candidates
        assert len(pred.candidates) <= ek.L

    def test_window_length_validation(self):
        ek = ek_constants((2, 1))
        with pytest.raises(ValueError):
            ek_step_predict([1, 2, 3], ek)


class TestEKFrequency:
    def test_engineered_integer_orbit(self):
        # omega * 4^n is an integer for omega = 1/4: every distance is 0
        rep = ek_frequency((4, 2), (1, 0), Fraction(1, 4), 50, Fraction(1, 10))
        assert rep.count == 0
        assert rep.fraction == 0
        assert all(d == 0 for d in rep.distances)

    def test_engineered_constant_distance(self):
        # 4^n / 3 always has fractional part 1/3: every n counts for rho = 1/4
        rep = ek_frequency((4, 2), (1, 0), Fraction(1, 3), 40, Fraction(1, 4))
        assert rep.count == 40
        assert rep.fraction == 1.0
        for d in rep.distances:
            assert d == pytest.approx(1 / 3, abs=1e-12)

    def test_rho_half_is_unreachable(self):
        rep = ek_frequency((4, 2), (1, 0), 0.3, 100, Fraction(1, 2))
        assert rep.count == 0

    def test_golden_distances_decay(self):
        # ||phi^n|| >= 0.3 only for n = 1, 2
        with mp.workprec(120):
            phi = (1 + mp.sqrt(5)) / 2
            phi2 = (1 - mp.sqrt(5)) / 2
        rep = ek_frequency((phi, phi2), (1, 0), 1, 30, Fraction(3, 10))
        assert rep.count == 2
        with mp.workprec(300):
            p = (1 + mp.sqrt(5)) / 2
            for n in range(1, 31):
                assert rep.distances[n - 1] == pytest.approx(
                    float(_frac_dist_oracle(p**n)), abs=1e-9
                )

    def test_generic_pair_counts(self):
        with mp.workprec(120):
            th1 = float((1 + mp.sqrt(13)) / 2)
            th2 = float((1 - mp.sqrt(13)) / 2)
        rep = ek_frequency((th1, th2), (1, 0.2), 0.3, 100, Fraction(1, 10))
        assert 0 < rep.count <= 100
        assert rep.fraction == rep.count / 100
        assert len(rep.distances) == 100

    def test_complex_conjugate_symmetry_enforced(self):
        zs = (2, 1 + 1j, 1 - 1j)
        # asymmetric coefficients rejected
        with pytest.raises(ValueError):
            ek_frequency(zs, (1, 1j, 1j), 0.3, 10, Fraction(1, 10))
        # symmetric ones accepted (the sums are then real)
        rep = ek_frequency(zs, (1, 1j, -1j), 0.3, 20, Fraction(1, 10))
        assert len(rep.distances) == 20

    def test_validation(self):
        with pytest.raises(ValueError):
            ek_frequency((2, 1), (2, 0), 0.3, 10, Fraction(1, 10))
        with pytest.raises(ValueError):
            ek_frequency((2, 1), (1,), 0.3, 10, Fraction(1, 10))
        with pytest.raises(ValueError):
            ek_frequency((2, 1), (1, 0), 0.3, 0, Fraction(1, 10))
        with pytest.raises(ValueError):
            ek_frequency((2, 1), (1, 0), 0.3, 10, Fraction(2, 3))
        with pytest.raises(ValueError):
            ek_frequency((2, 1), (1, 0), 0.3, 10, 0)

    def test_deterministic(self):
        # rho = 1/7 cannot be hit exactly by the dyadic orbit values, so
        # every comparison is decidable
        a = ek_frequency((4, 2), (1, 0.5), 0.37, 60, Fraction(1, 7))
        b = ek_frequency((4, 2), (1, 0.5), 0.37, 60, Fraction(1, 7))
        assert a == b

    def test_exact_boundary_hit_is_refused(self):
        # omega * 4^1 = 1/2 sits exactly on rho = 1/2: no finite precision
        # can separate them, and the function must say so rather than guess
        with pytest.raises(PrecisionExhausted):
            ek_frequency((4, 2), (1, 0), Fraction(1, 8), 5, Fraction(1, 2))


# ---------------------------------------------------------------------------
# the Fraction and per-call loops the integer kernels replaced


def ref_mpf_ratio(q: Fraction) -> tuple:
    """mpf(q.numerator) / q.denominator at 120 bits, q reduced."""
    return libmp.mpf_div(
        libmp.from_int(q.numerator, 120, RND), libmp.from_int(q.denominator), 120, RND
    )


def ref_certified_split(L, H, qS, err):
    """(k, eps) as one reduced Fraction, or None: the split of [L/qS, H/qS]."""
    two_qS = 2 * qS
    if (2 * L + qS) // two_qS != (2 * H + qS) // two_qS:
        return None
    if (H - L) * err.denominator > 2 * err.numerator * qS:
        return None
    k = (L + H + qS) // two_qS
    return k, Fraction(L + H - k * two_qS, two_qS)


def ref_fraction_split(ai, t, N, err=Fraction(1, 2**40)):
    """(K, eps, eps_num, widths) of t theta^k for k < N, with a reduced
    Fraction per term; widths[k] is the bracket width that certified term
    k, None for a term with rational coordinates."""
    err = Fraction(err)
    x0, q = diophantine._normalize_t(ai, t)
    s = ai.degree
    coords = [x0]
    for _ in range(N - 1):
        coords.append(zt_mul_theta(coords[-1], ai))
    maxbit = max(max(abs(c) for c in x.coords).bit_length() for x in coords)
    err_bits = max(8, (err.denominator // max(err.numerator, 1)).bit_length())
    width = s * maxbit + q.bit_length() + err_bits + 64
    K, eps, eps_num, widths = [], [], [], []
    for x in coords:
        c0 = x.coords[0]
        if all(c == 0 for c in x.coords[1:]):
            k = (2 * c0 + q) // (2 * q)
            K.append(k)
            eps.append(Fraction(c0 - k * q, q))
            eps_num.append(ZThetaElement((c0 - k * q,) + (0,) * (s - 1)))
            widths.append(None)
            continue
        w = width
        while True:
            bracket = algebraic._scaled_bracket(*ai.real_bracket(w))
            L, H, S = algebraic._zt_scaled(x.coords, *bracket)
            split = ref_certified_split(L, H, q * S, err)
            if split is not None:
                K.append(split[0])
                eps.append(split[1])
                eps_num.append(ZThetaElement((c0 - split[0] * q,) + x.coords[1:]))
                widths.append(w)
                break
            w *= 2
    return tuple(K), tuple(eps), tuple(eps_num), tuple(widths)


def ref_common_numerators(fracs):
    """The numerators of ``fracs`` over their least common denominator D,
    and D."""
    D = math.lcm(*(f.denominator for f in fracs))
    return [f.numerator * (D // f.denominator) for f in fracs], D


def ref_product_values(eps):
    """(values, value, log_value) of the product by Fraction prefix sums."""
    partial = Fraction(0)
    log_values = []
    for e in eps:
        partial += e * e
        log_values.append(partial)
    values = tuple(
        libmp.to_float(libmp.mpf_exp(ref_mpf_ratio(-p), 120, RND), rnd=RND)
        for p in log_values
    )
    log_value = ref_mpf_ratio(-partial)
    value = mp.make_mpf(libmp.mpf_exp(log_value, 120, RND))
    return values, value, mp.make_mpf(log_value)


def ref_window_maxima(values, beta, k_max):
    candidates = deque()
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


def ref_window_escape_check(ai, t, k0=None, k_max=50, diagnostic=False,
                            beta_override=None):
    """The window check with Fraction maxima and Fraction verdicts."""
    hypothesis_violated = False
    try:
        consts = prop_alg_constants(ai)
        beta = beta_override or consts.beta
        delta1 = consts.delta1
    except WrongClass:
        if not diagnostic:
            raise
        hypothesis_violated = True
        beta = beta_override or 2
        delta1 = Fraction(1, 1 + ai.degree * ai.height)
    err = Fraction(1, 2**60)
    while True:
        abs_eps = [abs(e) for e in ref_fraction_split(ai, t, k_max * beta, err)[1]]
        verdicts = {}
        for k, (best, arg) in enumerate(ref_window_maxima(abs_eps, beta, k_max), 1):
            if best - err >= delta1:
                verdicts[k] = (True, best, arg)
            elif best + err < delta1:
                verdicts[k] = (False, best, arg)
            else:
                verdicts[k] = (None, best, arg)
        if all(v[0] is not None for v in verdicts.values()):
            break
        err /= 2**20
    empirical = k0 is None
    if empirical:
        failing = [k for k, v in verdicts.items() if v[0] is False]
        k0 = max(failing) + 1 + 5 if failing else 1
    out = []
    first_violation = None
    for k in range(k0, k_max + 1):
        ok, best, arg = verdicts[k]
        out.append(WindowVerdict(k, bool(ok), float(best), arg))
        if not ok and first_violation is None:
            first_violation = k
    return WindowEscapeReport(
        k0=k0,
        k0_empirical=empirical,
        beta=beta,
        delta1=delta1,
        verdicts=tuple(out),
        first_violation=first_violation,
        hypothesis_violated=hypothesis_violated,
    )


def ref_ek_step_predict(K_window, consts, precision_bits=160):
    """The prediction with a fresh context and matrix inversion per call."""
    m = len(consts.theta_list)
    ctx = mp.MPContext()
    ctx.prec = precision_bits
    zs = [ctx.convert(z) for z in consts.theta_list]
    V = ctx.matrix(m, m)
    for i in range(m):
        for j in range(m):
            V[i, j] = zs[j] ** i
    window = ctx.matrix([ctx.mpc(int(k)) for k in K_window])
    y = V**-1 * window
    pred = ctx.re(ctx.fsum(zs[j] ** m * y[j] for j in range(m)))
    halfwidth = (ctx.convert(consts.L_exact) - 1) / 2
    slack = ctx.mpf(2) ** -40
    candidates = tuple(
        c
        for c in range(int(ctx.floor(pred - halfwidth)), int(ctx.ceil(pred + halfwidth)) + 1)
        if abs(pred - c) <= halfwidth + slack
    )
    best = int(ctx.nint(pred))
    margin = (
        ctx.convert(consts.rho) * consts.theta1 * consts.vandermonde_norm
        * consts.vandermonde_inv_norm
    )
    unique = (
        bool(abs(pred - best) + margin + slack < ctx.mpf("0.5")) or len(candidates) == 1
    )
    return EKPrediction(float(pred), best, candidates, unique)


def _oracle_inputs():
    """(polynomial, t, N, keyword arguments) for the product and window
    oracles: seeded t = k/DENOM in [1, theta] for x^2 - x - 3, the small-t
    branch, ring-element t, t over 7 and 9 (whose sums share an odd factor
    with their denominators), the golden ratio's diagnostic class, a cubic,
    other errs, x^2 - 5x + 6 at t = 1/2, 3/2, 7/2 and 5/6, whose terms sit
    on Z + 1/2 and force width doubling, x^2 - x - 2 at t = k/4, where only
    the term t theta sits on Z + 1/2 (so the eps have denominators at two
    widths), and x - 3, where every term takes the exact rational branch."""
    rng = random.Random(20131)
    k_hi = (DENOM + math.isqrt(13 * DENOM * DENOM)) // 2
    cases = [(RUNNING, Fraction(rng.randint(DENOM, k_hi), DENOM), 150, {})
             for _ in range(72)]
    cases += [(RUNNING, Fraction(rng.randint(1, DENOM - 1), DENOM), 60, {})
              for _ in range(8)]
    cases += [(RUNNING, ZThetaElement(c), 80, {}) for c in ((1, 1), (-2, 3), (5, -1))]
    cases += [(RUNNING, Fraction(k, 7), 150, {}) for k in (3, 8, 13, 16)]
    cases += [(RUNNING, Fraction(k, 9), 100, {}) for k in (10, 13)]
    cases += [(GOLDEN, Fraction(k, 7), 80, {"diagnostic": True}) for k in (3, 8, 11)]
    cases += [(GOLDEN, 1, 60, {"diagnostic": True})]
    cases += [(CUBIC, Fraction(k, 5), 60, {}) for k in (3, 6, 9)]
    cases += [(RUNNING, Fraction(7, 5), 60, {"err": e})
              for e in (Fraction(1, 3), Fraction(1, 10**6), Fraction(1, 2**400))]
    cases += [(ROOTS_2_3, Fraction(k, 2), 30, {"diagnostic": True}) for k in (1, 3, 7)]
    cases += [(ROOTS_2_3, Fraction(5, 6), 30, {"diagnostic": True})]
    cases += [(MIXED, Fraction(k, 4), 30, {"diagnostic": True}) for k in (5, 7, 13)]
    cases += [(LINEAR, t, 40, {"diagnostic": True})
              for t in (Fraction(5, 7), Fraction(11, 5), 4)]
    return cases


class TestIntegerKernelOracles:
    @pytest.fixture(scope="class")
    def ais(self):
        return {p: AlgebraicInteger.from_poly(p, 128)
                for p in (RUNNING, GOLDEN, CUBIC, ROOTS_2_3, MIXED, LINEAR)}

    def test_split_matches_fraction_split(self, ais):
        for poly, t, N, kwargs in _oracle_inputs():
            err = kwargs.get("err", Fraction(1, 2**40))
            seq = pisot_sequence(ais[poly], t, N, err=err)
            K, eps, eps_num, _ = ref_fraction_split(ais[poly], t, N, err)
            assert pickle.dumps((seq.K, seq.eps, seq.eps_num)) == pickle.dumps(
                (K, eps, eps_num)
            ), (poly, t, kwargs)
            # the numerators over D are those over the least common
            # denominator, scaled by D over it
            nums, lcd = ref_common_numerators(eps)
            assert seq.D % lcd == 0
            assert list(seq.nums) == [n * (seq.D // lcd) for n in nums]

    def test_inputs_mix_denominators_and_take_the_rational_branch(self, ais):
        cases = _oracle_inputs()
        for poly, t, N, _ in (c for c in cases if c[0] == MIXED):
            # the term t theta was retried at twice the width (or more) and
            # the others were not, so the terms have denominators q and 2qS
            # at two widths
            widths = ref_fraction_split(ais[poly], t, N)[3]
            low, high = sorted({w for w in widths if w is not None})
            assert widths[1] == high and high % (2 * low) == 0
        for poly, t, N, _ in (c for c in cases if c[0] == LINEAR):
            widths = ref_fraction_split(ais[poly], t, N)[3]
            assert set(widths) == {None}
            assert pisot_sequence(ais[poly], t, N).D == Fraction(t).denominator

    def test_product_matches_fraction_sums(self, ais):
        cases = _oracle_inputs()
        assert len(cases) >= 100
        for poly, t, N, kwargs in cases:
            ai = ais[poly]
            report = prop_alg_product(ai, t, N, **kwargs)
            eps = ref_fraction_split(ai, t, N, kwargs.get("err", Fraction(1, 2**40)))[1]
            got = pickle.dumps((report.values, report.value, report.log_value))
            assert got == pickle.dumps(ref_product_values(eps)), (poly, t, kwargs)

    def test_oracle_inputs_tell_the_roundings_apart(self, ais):
        # rounding -P/D^2 in one step, or rounding the unreduced numerator
        # first, gives other values on these inputs than the reduced
        # two-step rounding; so the comparison above sees either change
        one_step = unreduced = widths_doubled = 0
        for poly, t, N, kwargs in _oracle_inputs():
            seq = pisot_sequence(ais[poly], t, N, err=kwargs.get("err", Fraction(1, 2**40)))
            D = math.lcm(*(e.denominator for e in seq.eps))
            P, partial = 0, Fraction(0)
            for e in seq.eps:
                P += (e.numerator * (D // e.denominator)) ** 2
                partial += e * e
                want = ref_mpf_ratio(-partial)
                one_step += libmp.from_rational(-P, D * D, 120, RND) != want
                unreduced += libmp.mpf_div(
                    libmp.from_int(-P, 120, RND), libmp.from_int(D * D), 120, RND
                ) != want
        assert one_step > 100 and unreduced > 10

    def test_width_doubling_input_doubles(self, ais, monkeypatch):
        widths = []
        real = AlgebraicInteger.real_bracket

        def spy(self, width_bits):
            widths.append(width_bits)
            return real(self, width_bits)

        monkeypatch.setattr(AlgebraicInteger, "real_bracket", spy)
        pisot_sequence(ais[ROOTS_2_3], Fraction(1, 2), 30)
        assert len(set(widths)) > 1

    def test_windows_match_fraction_verdicts(self, ais):
        cases = _oracle_inputs()
        for i, (poly, t, N, kwargs) in enumerate(cases):
            kwargs = {k: v for k, v in kwargs.items() if k != "err"}
            if poly == GOLDEN and i % 2:
                kwargs["beta_override"] = 3
            k_max = 20 if poly == RUNNING else 8
            got = window_escape_check(ais[poly], t, k_max=k_max, **kwargs)
            want = ref_window_escape_check(ais[poly], t, k_max=k_max, **kwargs)
            assert pickle.dumps(got) == pickle.dumps(want), (poly, t, kwargs)

    def test_step_prediction_matches_per_call_inversion(self, golden):
        consts = [
            ek_constants((2, 1)),
            ek_constants(tuple(d.center for d in golden.roots)),
            ek_constants(tuple(d.center for d in AlgebraicInteger.from_poly(CUBIC).roots), 200),
        ]
        rng = random.Random(5)
        for ek in consts:
            m = len(ek.theta_list)
            for bits in (96, 160):
                for _ in range(12):
                    window = [rng.randint(-10**6, 10**6) for _ in range(m)]
                    got = ek_step_predict(window, ek, bits)
                    assert pickle.dumps(got) == pickle.dumps(
                        ref_ek_step_predict(window, ek, bits)
                    )

    def test_warm_step_prediction_inverts_nothing(self, monkeypatch):
        ek = ek_constants((3, -1, 2))
        ek_step_predict([1, 2, 3], ek)
        contexts = type(mp.mp)
        calls = []
        real = contexts.inverse

        def counting(ctx, *args, **kwargs):
            calls.append(args)
            return real(ctx, *args, **kwargs)

        monkeypatch.setattr(contexts, "inverse", counting)
        for k in range(5):
            ek_step_predict([k, 2 * k, 3 * k + 1], ek)
        assert calls == []
        diophantine._ek_step_data.cache_clear()
        ek_step_predict([1, 2, 3], ek)
        assert len(calls) == 1
