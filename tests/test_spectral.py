"""Tests for spectral-measure estimators and certificates.

Oracles: twisted Birkhoff sums are checked against literal direct
summation; the product-bound constant c1 against integer matrix powers
computed with numpy; transfer-product norms against a from-scratch
complex128 reconstruction of the matrices.  Derived scalar expectations
(c1 = 1/76 for the cubed running example, the 0.0931 modulus exponent,
the 2^n staircase of the symmetric example) were computed by those
independent routes and are frozen below.
"""

import cmath
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import subspectral.spectral as spectral_module
from subspectral.errors import (
    NotFound,
    NotInLanguage,
    NotMeanZero,
    RadiusTooLarge,
)
from subspectral.riesz import (
    as_exact,
    phi_direct,
    phi_recursive,
    phi_suspension,
    shifted_product,
)
from subspectral.spectral import (
    PI_SQUARED_UPPER,
    DiophConstants,
    _perron_theta,
    birkhoff_sup_bound,
    birkhoff_twisted,
    dimension_bound_from_alpha,
    dioph_constants,
    dioph_product_bound,
    eigenvalue_test,
    fejer_ball_bound,
    fejer_window,
    g_estimate,
    gamma_frequency,
    holder_exponent,
    local_dimension_bound,
    modulus_ball_bound,
    return_word_power,
    spectral_ball_bound,
    zero_exponent_scan,
)
from subspectral.substitution import (
    Substitution,
    fixed_point_prefix,
    lengths_at,
    perron_data,
    substitution_matrix,
)

RUNNING = Substitution.from_images(["1222", "1"])
RUNNING3 = RUNNING.power(3)
THUE_MORSE = Substitution.from_images(["12", "21"])
TM3 = THUE_MORSE.power(3)
SYMMETRIC = Substitution.from_images(["1112", "1222"])
PERIOD_DOUBLING = Substitution.from_images(["12", "11"])
DOUBLING = Substitution.from_images(["11"])


def direct_birkhoff(word, f_coeffs, omega):
    om = Fraction(omega)
    return sum(
        cmath.exp(-2j * math.pi * float((om * n) % 1)) * f_coeffs[letter - 1]
        for n, letter in enumerate(word)
    )


# ---------------------------------------------------------------------------
# twisted Birkhoff sums


class TestBirkhoffTwisted:
    def test_matches_direct_summation(self):
        pref = fixed_point_prefix(RUNNING, 137)
        om = Fraction(3, 17)
        f = (2.0, -1.5)
        got = complex(birkhoff_twisted(RUNNING, f, pref, omega=om))
        want = direct_birkhoff(pref, f, om)
        assert abs(got - want) < 1e-9

    def test_indicator_prefix_seven(self):
        # the length-7 prefix of the fixed point, counted against letter 1
        word = "1222111"
        got = complex(
            birkhoff_twisted(RUNNING, (1, 0), word, omega=Fraction(3, 10))
        )
        want = complex(phi_direct(word, 1, Fraction(3, 10)))
        assert abs(got - want) < 1e-9

    def test_zero_twist_counts(self):
        pref = fixed_point_prefix(RUNNING, 53)
        got = complex(birkhoff_twisted(RUNNING, (1, 1), pref, omega=0))
        assert abs(got - 53) < 1e-9
        got1 = complex(birkhoff_twisted(RUNNING, (1, 0), pref, omega=0))
        assert abs(got1 - pref.count(1)) < 1e-9

    def test_single_letter(self):
        got = complex(birkhoff_twisted(RUNNING, (5.0, 7.0), "1", omega=0.37))
        assert abs(got - 5.0) < 1e-12

    def test_N_prefix_slice(self):
        pref = fixed_point_prefix(RUNNING, 40)
        om = Fraction(5, 13)
        got = complex(birkhoff_twisted(RUNNING, (1, -1), pref, N=17, omega=om))
        want = direct_birkhoff(pref[:17], (1, -1), om)
        assert abs(got - want) < 1e-9

    def test_illegal_word_refused(self):
        with pytest.raises(NotInLanguage):
            birkhoff_twisted(RUNNING, (1, 0), "2222", omega=0.3)

    def test_validation(self):
        with pytest.raises(ValueError):
            birkhoff_twisted(RUNNING, (1, 0, 0), "12", omega=0.3)
        with pytest.raises(ValueError):
            birkhoff_twisted(RUNNING, (1, 0), "12", N=3, omega=0.3)

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=120),
        num=st.integers(min_value=0, max_value=40),
        den=st.integers(min_value=1, max_value=41),
    )
    def test_equals_direct_summation_everywhere(self, n, num, den):
        om = Fraction(num, den)
        pref = fixed_point_prefix(RUNNING, n)
        got = complex(birkhoff_twisted(RUNNING, (1, -1), pref, omega=om))
        want = direct_birkhoff(pref, (1, -1), om)
        assert abs(got - want) < 1e-8


# ---------------------------------------------------------------------------
# window averages


class TestGEstimate:
    def test_coherent_sum_is_N(self):
        ge = g_estimate(RUNNING, (1.0, 1.0), 0, 16, sample_count=8)
        assert ge.mean == pytest.approx(16.0, abs=1e-9)
        assert ge.sup == pytest.approx(16.0, abs=1e-9)
        assert all(s == pytest.approx(16.0, abs=1e-9) for s in ge.samples)

    def test_sup_dominates_mean(self):
        for om in (Fraction(1, 5), Fraction(3, 10), Fraction(7, 11)):
            ge = g_estimate(RUNNING, (1.0, 0.0), om, 24, sample_count=16)
            assert ge.sup >= ge.mean

    def test_quadrature_recovers_letter_frequency(self):
        # grid average over a full twist period of the window-mean G equals
        # the sampled letter frequency; that converges to the first
        # eigenvector frequency
        cases = [
            (THUE_MORSE, 16, 64, Fraction(1, 2), 1e-6),
            (PERIOD_DOUBLING, 16, 256, Fraction(2, 3), 1e-3),
            (RUNNING, 16, 2048, None, 1e-3),
        ]
        for zeta, N, count, mu1, tol in cases:
            if mu1 is None:
                pd = perron_data(substitution_matrix(zeta))
                mu1 = float(pd.r_vec[0])
            K = N
            acc = 0.0
            for j in range(K):
                ge = g_estimate(
                    zeta, (1.0, 0.0), Fraction(j, K), N, sample_count=count
                )
                acc += ge.mean
            assert abs(acc / K - float(mu1)) < tol

    def test_jitter_deterministic_per_seed(self):
        a = g_estimate(RUNNING, (1.0, 0.0), Fraction(1, 5), 16, 8, jitter_seed=3)
        b = g_estimate(RUNNING, (1.0, 0.0), Fraction(1, 5), 16, 8, jitter_seed=3)
        c = g_estimate(RUNNING, (1.0, 0.0), Fraction(1, 5), 16, 8, jitter_seed=4)
        assert a.samples == b.samples
        assert a.jitter_seed == 3
        assert c.samples != a.samples

    def test_validation(self):
        with pytest.raises(ValueError):
            g_estimate(RUNNING, (1.0, 0.0), 0.3, 0)
        with pytest.raises(ValueError):
            g_estimate(RUNNING, (1.0, 0.0), 0.3, 4, sample_count=0)
        with pytest.raises(ValueError):
            g_estimate(RUNNING, (1.0,), 0.3, 4)


# ---------------------------------------------------------------------------
# kernel ball bounds


class TestFejer:
    def test_window_examples(self):
        assert fejer_window(Fraction(1, 4)) == 2
        assert fejer_window(Fraction(1, 2)) == 1
        assert fejer_window(Fraction(1, 3)) == 1
        assert fejer_window(Fraction(1, 5)) == 2
        assert fejer_window(Fraction(1, 100)) == 50

    def test_window_bracket_property(self):
        for r in (Fraction(1, 7), Fraction(2, 9), Fraction(3, 1000)):
            N = fejer_window(r)
            assert N * 2 * r <= 1 < (N + 1) * 2 * r

    def test_radius_refused(self):
        with pytest.raises(RadiusTooLarge):
            fejer_window(Fraction(3, 5))
        with pytest.raises(ValueError):
            fejer_window(0)

    def test_coherent_bound_is_vacuous(self):
        b = fejer_ball_bound(16.0, 16)
        assert b.value == pytest.approx(PI_SQUARED_UPPER / 4)
        assert b.value == pytest.approx(2.4674, abs=1e-3)
        assert b.vacuous

    def test_zero_G(self):
        b = fejer_ball_bound(0.0, 7)
        assert b.value == 0.0
        assert not b.vacuous

    def test_formula_and_total_mass(self):
        b = fejer_ball_bound(3.7, 11)
        assert b.value == pytest.approx(PI_SQUARED_UPPER / 44 * 3.7)
        assert not b.vacuous
        assert fejer_ball_bound(3.7, 11, total_mass=0.5).vacuous

    def test_validation(self):
        with pytest.raises(ValueError):
            fejer_ball_bound(1.0, 0)
        with pytest.raises(ValueError):
            fejer_ball_bound(-1.0, 4)


# ---------------------------------------------------------------------------
# product-bound constants


class TestDiophConstants:
    def test_single_letter_doubling(self):
        c = dioph_constants(DOUBLING, "1")
        assert c.c1 == Fraction(1, 4)
        assert c.cap == Fraction(1, 3)
        assert c.Cprime == 1
        assert c.theta == pytest.approx(2.0)
        assert set(c.c3_values) == {Fraction(1, 4)}
        assert c.tail_certified

    def test_kmax_zero_formula(self):
        c = dioph_constants(DOUBLING, "1", k_max=0)
        assert c.c1 == Fraction(1, 4)
        # symmetric example: m=2, max image length 4
        p = return_word_power(SYMMETRIC, "1")
        sym = SYMMETRIC.power(p)
        c2 = dioph_constants(sym, "1", k_max=0)
        m, R = 2, max(len(im) for im in sym.images)
        assert c2.c1 == min(Fraction(1, 2 * m * R), c2.cap)

    def test_running_example_needs_power(self):
        with pytest.raises(NotFound):
            dioph_constants(RUNNING, "1")
        assert return_word_power(RUNNING, "1") == 3

    def test_running_cubed_c1_frozen(self):
        c = dioph_constants(RUNNING3, "1", k_max=12)
        assert c.c1 == Fraction(1, 76)
        assert 0 < c.c1 < 1
        assert c.c1 <= c.cap
        assert c.tail_certified

    def test_c3_against_matrix_power_oracle(self):
        S = np.array(substitution_matrix(RUNNING3), dtype=object)
        St = S.T
        R = max(len(im) for im in RUNNING3.images)
        x = np.array([1, 1], dtype=object)
        c = dioph_constants(RUNNING3, "1", k_max=8)
        for k in range(9):
            want = Fraction(int(x[0]), 2 * 2 * R * int(max(x)))
            assert c.c3_values[k] == want
            x = St @ x

    def test_cap_invariant(self):
        for zeta, v in ((DOUBLING, "1"), (RUNNING3, "1"), (TM3, "12")):
            c = dioph_constants(zeta, v, k_max=6)
            assert c.c1 <= c.cap
            assert 0 < c.c1 < 1

    def test_pf_ratio_directions(self):
        c = dioph_constants(RUNNING3, "1", k_max=10)
        pd = perron_data(substitution_matrix(RUNNING3))
        with mp.workprec(120):
            th = pd.theta
            for n in range(11):
                for length in lengths_at(RUNNING3, n):
                    ratio = mp.mpf(length) / th**n
                    assert float(c.c_lower) <= float(ratio) * (1 + 1e-15)
                    assert float(ratio) <= float(c.c_upper) * (1 + 1e-15)
        assert c.Cprime == c.c_upper / c.c_lower
        assert c.Cpp > 0 and c.C2 > 0

    def test_return_word_validation(self):
        with pytest.raises(ValueError):
            dioph_constants(RUNNING3, "11")  # first letter repeats
        with pytest.raises(ValueError):
            dioph_constants(RUNNING3, "3")  # letter out of range
        with pytest.raises(ValueError):
            dioph_constants(RUNNING3, "")
        with pytest.raises(ValueError):
            dioph_constants(RUNNING3, "1", k_max=-1)

    def test_return_word_power_not_found(self):
        with pytest.raises(NotFound):
            return_word_power(RUNNING, "1", power_cap=2)


# ---------------------------------------------------------------------------
# the certified product bound


@pytest.fixture(scope="module")
def consts():
    return dioph_constants(RUNNING3, "1", k_max=12)


class TestDiophProductBound:
    def test_zero_twist_all_factors_one(self, consts):
        pb = dioph_product_bound(RUNNING3, "1", 0, 4, consts)
        assert set(pb.factors) == {Fraction(1)}
        assert pb.product == 1
        for b in (1, 2):
            assert pb.per_letter[b - 1] == consts.Cprime * lengths_at(
                RUNNING3, 4
            )[b - 1]

    def test_half_twist_even_lengths(self):
        c = dioph_constants(TM3, "12", k_max=8)
        pb = dioph_product_bound(TM3, "12", Fraction(1, 2), 5, c)
        assert set(pb.factors) == {Fraction(1)}
        assert pb.product == 1

    def test_certified_inequality_grid(self, consts):
        omegas = [
            Fraction(1, 3), Fraction(2, 7), Fraction(3, 10), Fraction(5, 11),
            Fraction(355, 1130), Fraction(1, 97), Fraction(13, 29),
            Fraction(8, 17),
        ]
        for om in omegas:
            for n in range(7):
                pb = dioph_product_bound(RUNNING3, "1", om, n, consts)
                for b in (1, 2):
                    for a in (1, 2):
                        v = abs(phi_recursive(RUNNING3, a, b, n, om))
                        assert float(v) <= float(pb.per_letter[b - 1]) * (
                            1 + 1e-12
                        )

    def test_certified_inequality_suspension(self, consts):
        roof = (Fraction(1), Fraction(3, 2))
        for om in (Fraction(1, 3), Fraction(2, 7), Fraction(7, 9)):
            for n in range(5):
                pb = dioph_product_bound(
                    RUNNING3, "1", om, n, consts, roof=roof
                )
                for a in (1, 2):
                    for b in (1, 2):
                        v = abs(phi_suspension(RUNNING3, roof, a, b, n, om))
                        assert float(v) <= float(pb.per_letter[b - 1]) * (
                            1 + 1e-12
                        )

    def test_product_monotone_in_depth(self, consts):
        prev = Fraction(2)
        for n in range(8):
            pb = dioph_product_bound(RUNNING3, "1", Fraction(2, 7), n, consts)
            assert pb.product <= prev
            prev = pb.product

    def test_factors_within_band(self, consts):
        pb = dioph_product_bound(RUNNING3, "1", Fraction(5, 11), 9, consts)
        for f in pb.factors:
            assert 1 - consts.c1 * Fraction(1, 4) <= f <= 1

    def test_mismatched_constants_refused(self, consts):
        with pytest.raises(ValueError):
            dioph_product_bound(RUNNING3, "12", Fraction(1, 3), 3, consts)
        with pytest.raises(ValueError):
            dioph_product_bound(RUNNING3, "1", Fraction(1, 3), -1, consts)


# ---------------------------------------------------------------------------
# uniform sum bounds and ball bounds through the chain


class TestSupAndBallBounds:
    def test_sup_bound_dominates_windows(self, consts):
        om = Fraction(3, 10)
        for N in (50, 200):
            bound = float(birkhoff_sup_bound(RUNNING3, "1", om, N, consts))
            ge = g_estimate(RUNNING3, (1.0, 0.0), om, N, sample_count=24)
            observed_sup = math.sqrt(ge.sup * N)  # |S_N| from N^-1 |S_N|^2
            assert observed_sup <= bound

    def test_small_N_trivial_bound(self, consts):
        assert birkhoff_sup_bound(RUNNING3, "1", Fraction(1, 3), 1, consts) == (
            consts.Cpp
        )
        with pytest.raises(ValueError):
            birkhoff_sup_bound(RUNNING3, "1", Fraction(1, 3), 0, consts)

    def test_ball_bound_chain(self, consts):
        sb = spectral_ball_bound(
            RUNNING3, Fraction(3, 10), Fraction(1, 1000), consts
        )
        assert sb.upper >= 0
        N = fejer_window(Fraction(1, 1000))
        sup = birkhoff_sup_bound(RUNNING3, "1", Fraction(3, 10), N, consts)
        assert sb.upper == pytest.approx(
            PI_SQUARED_UPPER / 4 * float((sup / N) ** 2)
        )
        assert sb.constants is consts
        assert sb.exponent is None

    def test_modulus_bound_monotone_in_radius(self):
        radii = [Fraction(1, k) for k in range(400, 2, -7)]
        vals = [modulus_ball_bound(Fraction(3, 10), r, 2.0, 0.0931) for r in radii]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_modulus_bound_formula(self):
        got = modulus_ball_bound(0.3, Fraction(1, 100), 2.0, 0.5)
        assert got == pytest.approx(PI_SQUARED_UPPER / 2 * math.sqrt(0.03))

    def test_modulus_bound_refuses_large_radius(self):
        with pytest.raises(RadiusTooLarge):
            modulus_ball_bound(0.3, 0.3, 1.0, 0.1, N0=2)
        with pytest.raises(ValueError):
            modulus_ball_bound(0.3, 0, 1.0, 0.1)
        with pytest.raises(ValueError):
            modulus_ball_bound(0.3, 0.1, 1.0, -0.1)

    def test_chain_reproduces_frequency_exponent(self, consts):
        # feed a frequency certificate into the exponent and the exponent
        # into the ball bound: the decay exponent must match the direct
        # formula -2 eps log_theta(1 - c1 delta^2)
        delta = Fraction(1, 5)
        prof = gamma_frequency(RUNNING3, "1", Fraction(3, 10), delta, 40)
        eps = prof.liminf_estimate
        beta = holder_exponent(consts.theta, consts.c1, delta, eps)
        direct = (
            -2
            * eps
            * math.log(1 - float(consts.c1) * float(delta) ** 2)
            / math.log(consts.theta)
        )
        assert beta == pytest.approx(direct, rel=1e-12)
        b1 = modulus_ball_bound(Fraction(3, 10), Fraction(1, 64), 1.0, beta)
        b2 = modulus_ball_bound(Fraction(3, 10), Fraction(1, 128), 1.0, beta)
        # power-law decay at the certified exponent
        assert b1 / b2 == pytest.approx(2**beta, rel=1e-12)


# ---------------------------------------------------------------------------
# frequency profiles


class TestGammaFrequency:
    def test_constant_length_rational_eventually_zero(self):
        prof = gamma_frequency(
            THUE_MORSE, "1", Fraction(3, 8), Fraction(1, 4), 40
        )
        assert prof.counts[:4] == (1, 2, 3, 3)
        assert prof.counts[-1] == 3
        assert prof.eventually_zero
        assert prof.liminf_estimate == pytest.approx(3 / 40)
        assert not prof.empirical_member(0.5)

    def test_small_delta_frequency_one(self):
        om = Fraction(41421356237, 10**11)
        prof = gamma_frequency(THUE_MORSE, "1", om, Fraction(1, 1000), 60)
        assert prof.frequencies[-1] == 1.0
        assert prof.liminf_estimate == 1.0
        assert prof.empirical_member(0.9)

    def test_generic_twist_near_uniform_prediction(self):
        # quadratic-irrational twist: the escape frequency at threshold
        # delta tracks the uniform-measure prediction 1 - 2 delta
        om = Fraction(41421356237309504, 10**17)
        prof = gamma_frequency(RUNNING, "1", om, Fraction(1, 5), 40)
        assert abs(prof.frequencies[-1] - 0.6) < 0.15
        assert prof.liminf_estimate > 0.4

    def test_running_liminf_is_suffix_minimum(self):
        prof = gamma_frequency(RUNNING, "1", Fraction(2, 7), Fraction(1, 5), 25)
        mins = []
        cur = float("inf")
        for f in reversed(prof.frequencies):
            cur = min(cur, f)
            mins.append(cur)
        assert prof.running_liminf == tuple(reversed(mins))

    def test_roof_changes_lengths(self):
        roof = (Fraction(1), Fraction(2))
        prof = gamma_frequency(
            RUNNING, "1", Fraction(1, 3), Fraction(1, 4), 6, roof=roof
        )
        # manual check of the first tiled lengths of the letter-1 supertile
        lens = []
        from subspectral.substitution import abelianization, iterate_word

        for k in range(6):
            w = iterate_word(RUNNING, 1, k)
            ab = abelianization(w, 2)
            lens.append(ab[0] * roof[0] + ab[1] * roof[1])
        want = tuple(
            float(min((Fraction(1, 3) * L) % 1, 1 - (Fraction(1, 3) * L) % 1))
            for L in lens
        )
        assert prof.distances == pytest.approx(want)

    def test_validation(self):
        with pytest.raises(ValueError):
            gamma_frequency(RUNNING, "1", 0.3, Fraction(3, 5), 10)
        with pytest.raises(ValueError):
            gamma_frequency(RUNNING, "1", 0.3, Fraction(1, 4), 0)


# ---------------------------------------------------------------------------
# the modulus exponent


class TestHolderExponent:
    def test_arithmetic_example(self):
        got = holder_exponent(2, Fraction(1, 4), Fraction(1, 2), Fraction(1, 2))
        want = math.log(16 / 15) / math.log(2)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(0.0931, abs=1e-4)

    def test_degenerate_epsilon(self):
        assert holder_exponent(2, 0.25, 0.5, 0) == 0.0

    def test_vanishing_strength_limit(self):
        assert 0 < holder_exponent(2, 0.25, 1e-6, 0.5) < 1e-9

    def test_positive(self):
        assert holder_exponent(3, 0.1, 0.3, 0.2) > 0

    @settings(max_examples=40, deadline=None)
    @given(
        d1=st.integers(min_value=1, max_value=49),
        d2=st.integers(min_value=1, max_value=49),
        e1=st.integers(min_value=0, max_value=30),
        e2=st.integers(min_value=0, max_value=30),
    )
    def test_monotone_in_delta_and_epsilon(self, d1, d2, e1, e2):
        lo_d, hi_d = sorted((Fraction(d1, 100), Fraction(d2, 100)))
        lo_e, hi_e = sorted((Fraction(e1, 30), Fraction(e2, 30)))
        assert holder_exponent(2.5, 0.2, lo_d, hi_e) <= holder_exponent(
            2.5, 0.2, hi_d, hi_e
        )
        assert holder_exponent(2.5, 0.2, hi_d, lo_e) <= holder_exponent(
            2.5, 0.2, hi_d, hi_e
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            holder_exponent(1.0, 0.25, 0.5, 0.5)
        with pytest.raises(ValueError):
            holder_exponent(2, 1.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            holder_exponent(2, 0.25, 0.7, 0.5)
        with pytest.raises(ValueError):
            holder_exponent(2, 0.25, 0.5, -1)


# ---------------------------------------------------------------------------
# eigenvalue criterion


class TestEigenvalueTest:
    def test_constant_length_rational_converges(self):
        rep = eigenvalue_test(THUE_MORSE, "1", Fraction(1, 8), 40)
        assert rep.verdict == "Converging"
        assert rep.exact_zero_tail
        # terms vanish exactly once the length passes the denominator
        assert all(t == 0 for t in rep.terms[3:])

    def test_zero_twist_trivial(self):
        rep = eigenvalue_test(RUNNING3, "1", 0, 12)
        assert rep.verdict == "Converging"
        assert rep.partial_sums[-1] == 0.0

    def test_running_cubed_diverges(self):
        rep = eigenvalue_test(RUNNING3, "1", Fraction(3, 10), 40)
        assert rep.verdict == "Diverging"
        assert rep.partial_sums[-1] > 1.0

    def test_engineered_inconclusive(self):
        rep = eigenvalue_test(THUE_MORSE, "1", Fraction(1, 65536), 8)
        assert rep.verdict == "Inconclusive"
        assert not rep.exact_zero_tail

    def test_partial_sums_monotone(self):
        rep = eigenvalue_test(RUNNING3, "1", Fraction(2, 7), 20)
        assert all(
            b >= a for a, b in zip(rep.partial_sums, rep.partial_sums[1:])
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            eigenvalue_test(RUNNING3, "1", 0.3, 3)


# ---------------------------------------------------------------------------
# local dimension


def transfer_norms_oracle(zeta, n_max, omega):
    """From-scratch complex128 reconstruction of the level matrices and
    their left products, reduced to the row-sum norm."""
    m = zeta.m
    om = float(omega)
    prod = np.eye(m, dtype=complex)
    norms = []
    for k in range(n_max):
        lens = lengths_at(zeta, k)
        M = np.zeros((m, m), dtype=complex)
        for b in range(1, m + 1):
            cum = 0
            for letter in zeta.images[b - 1]:
                M[b - 1][letter - 1] += cmath.exp(
                    -2j * math.pi * ((om * cum) % 1)
                )
                cum += lens[letter - 1]
        prod = M @ prod
        norms.append(max(np.sum(np.abs(prod), axis=1)))
    return norms


class TestLocalDimension:
    def test_integer_twist_exact_zero(self):
        for om in (0, 3):
            rep = local_dimension_bound(RUNNING, om, 20)
            assert rep.lower_bound == 0.0
            assert rep.exact_peak
            pd = perron_data(substitution_matrix(RUNNING))
            assert rep.alpha == pytest.approx(float(pd.theta))

    def test_norms_match_independent_reconstruction(self):
        om = Fraction(3, 10)
        rep = local_dimension_bound(RUNNING, om, 12)
        want = transfer_norms_oracle(RUNNING, 12, om)
        assert rep.norms == pytest.approx(want, rel=1e-9)

    def test_norms_are_product_norms_within_their_bounds(self):
        # one product path: the logged norms and bounds are those of the
        # memoised prefix products, and each norm is within its bound of the
        # norm of a product computed in mpc arithmetic at 2P + 32 bits
        from test_riesz import TestIntegerKernel, reference_products

        n_max, bits = 48, 106
        for k in range(1, 30):
            om = Fraction(3449 * k, 100003)
            rep = local_dimension_bound(RUNNING, om, n_max)
            prod = shifted_product(RUNNING, 0, n_max, om)
            assert rep.norms == prod.per_step_norms
            assert rep.norm_errors == prod.norm_errors
            ref = reference_products(RUNNING, 0, n_max, om, None, bits)
            for n, (_, want) in enumerate(ref, start=1):
                slack = TestIntegerKernel.oracle_slack(RUNNING, n, bits) / 2**bits
                err = abs(Fraction(rep.norms[n - 1]) - as_exact(want))
                assert err <= Fraction(rep.norm_errors[n - 1]) + slack

    def test_generic_twist_contracts(self):
        rep = local_dimension_bound(RUNNING, Fraction(3, 10), 40)
        pd = perron_data(substitution_matrix(RUNNING))
        assert rep.alpha < float(pd.theta)
        assert 0 < rep.lower_bound <= 2
        # alpha consistent with the reported norms over the tail window
        want = max(
            rep.norms[n - 1] ** (1.0 / n)
            for n in range(rep.tail_start, rep.n_max + 1)
        )
        assert rep.alpha == pytest.approx(want)

    def test_formula_helper(self):
        assert dimension_bound_from_alpha(2.0, 4.0) == pytest.approx(1.0)
        assert dimension_bound_from_alpha(4.0, 4.0) == 0.0
        assert dimension_bound_from_alpha(math.sqrt(2.5), 2.5) == pytest.approx(
            1.0
        )
        assert dimension_bound_from_alpha(1e-9, 2.0) == 2.0  # clipped
        with pytest.raises(ValueError):
            dimension_bound_from_alpha(0, 2.0)
        with pytest.raises(ValueError):
            dimension_bound_from_alpha(1.5, 1.0)

    def test_theta_memo_leaves_reports_unchanged(self, monkeypatch):
        _perron_theta.cache_clear()
        cold = [local_dimension_bound(RUNNING, om, 12) for om in (2, Fraction(3, 10))]
        calls = []
        monkeypatch.setattr(
            spectral_module, "perron_data", lambda *a, **kw: calls.append(a)
        )
        warm = [local_dimension_bound(RUNNING, om, 12) for om in (2, Fraction(3, 10))]
        assert warm == cold
        assert calls == []
        pd = perron_data(substitution_matrix(RUNNING))
        assert cold[0].alpha == float(pd.theta)

    def test_validation(self):
        with pytest.raises(ValueError):
            local_dimension_bound(RUNNING, 0.3, 9)


# ---------------------------------------------------------------------------
# untwisted exponents


class TestZeroExponentScan:
    def test_symmetric_staircase_frozen(self):
        rep = zero_exponent_scan(SYMMETRIC, (1, -1), 4**8)
        vals = dict(zip(rep.dyadic_N, rep.values))
        for n in range(1, 9):
            assert vals[4**n] == 2**n  # exact eigen-sum collapse
        assert rep.regime == "power"
        assert rep.predicted_exponent == pytest.approx(0.5)
        assert rep.fitted_exponent == pytest.approx(0.4, abs=1e-9)
        assert abs(rep.fitted_exponent - 0.5) <= 0.1 + 1e-9
        assert rep.certified
        assert rep.theta2_modulus == pytest.approx(2.0)

    def test_symmetric_trend_toward_half(self):
        errs = []
        for Nm in (4**8, 2 * 4**8, 4 * 4**8):
            rep = zero_exponent_scan(SYMMETRIC, (1, -1), Nm)
            errs.append(abs(rep.fitted_exponent - 0.5))
        assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))

    def test_thue_morse_bounded(self):
        rep = zero_exponent_scan(THUE_MORSE, (1, -1), 4**6)
        assert rep.regime == "bounded"
        assert abs(rep.fitted_exponent) <= 0.05
        # the cancellation is exact at every power of two past the first
        assert all(v == 0 for v in rep.values[1:])

    def test_period_doubling_log_regime(self):
        rep = zero_exponent_scan(PERIOD_DOUBLING, (1, -2), 4**6)
        assert rep.regime == "log"
        assert rep.theta2_modulus == pytest.approx(1.0)
        assert rep.predicted_exponent == 0.0
        assert rep.log_fit_exponent is not None
        assert rep.certified

    def test_uncertified_fallback_on_repeated_roots(self):
        circ = Substitution.from_images(("1123", "2213", "3312"))
        rep = zero_exponent_scan(circ, (1, -1, 0), 4**5)
        assert rep.regime == "log"
        assert not rep.certified

    def test_zero_function(self):
        rep = zero_exponent_scan(SYMMETRIC, (0, 0), 64)
        assert rep.all_zero
        assert rep.fitted_exponent == 0.0

    def test_mean_zero_enforced(self):
        with pytest.raises(NotMeanZero):
            zero_exponent_scan(SYMMETRIC, (1, 1), 64)
        with pytest.raises(NotMeanZero):
            zero_exponent_scan(RUNNING, (1, -1), 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            zero_exponent_scan(SYMMETRIC, (1, -1), 4)
        with pytest.raises(ValueError):
            zero_exponent_scan(SYMMETRIC, (1, -1, 0), 64)
