"""Tests for the two-atom self-similar measure module.

Independent oracles: a plain cosine product for the unbiased transform, a
direct complex-exponential product for the biased one, and the Lucas-number
identity phi^k + (-1/phi)^k = L_k for the golden-ratio phases.  The integer
phase residues and the memo of power enclosures are compared byte for byte
(pickles) with the ``Fraction`` phase table and factor they replaced, kept
below as reference functions."""

import cmath
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from subspectral import bernoulli
from subspectral.algebraic import (
    AlgebraicInteger,
    ZThetaElement,
    prop_alg_constants,
    zt_mul_theta,
    zt_value_interval,
)
from subspectral.bernoulli import (
    BCScanReport,
    BernoulliParams,
    ErdosReport,
    FourierValue,
    bc_fourier,
    bc_log_decay_scan,
    _certified_phase_table,
    bernoulli_params,
    erdos_nondecay,
    params_from_theta,
)
from subspectral.errors import PrecisionExhausted, TailNotConverged, WrongClass

RUNNING_POLY = (1, -1, -3)
GOLDEN_POLY = (1, -1, -1)
PLASTIC_POLY = (1, 0, -1, -1)  # x^3 - x - 1, the smallest PV number
DENOM = 100003  # the prime denominator of the benchmark's t values


@pytest.fixture(scope="module")
def run_ai():
    return AlgebraicInteger.from_poly(RUNNING_POLY)


@pytest.fixture(scope="module")
def golden_ai():
    return AlgebraicInteger.from_poly(GOLDEN_POLY)


def exp_product(lam, p, xi, n_terms):
    """Direct oracle: product of p e^(-2 pi i lam^n xi) + (1-p) e^(2 pi i lam^n xi)."""
    total = complex(1, 0)
    for n in range(n_terms):
        a = 2 * math.pi * float(lam) ** n * float(xi)
        total *= p * cmath.exp(-1j * a) + (1 - p) * cmath.exp(1j * a)
    return total


class TestParams:
    def test_rational_attaches_integer_theta(self):
        par = bernoulli_params(Fraction(1, 2), Fraction(1, 2))
        assert par.lam_exact == Fraction(1, 2)
        assert par.theta is not None
        assert par.theta.poly == (1, -2)

    def test_generic_rational_has_no_theta(self):
        par = bernoulli_params(Fraction(2, 3), Fraction(1, 2))
        assert par.theta is None

    def test_from_theta_brackets_inverse(self, run_ai):
        par = params_from_theta(run_ai, Fraction(1, 2))
        lo, hi = par.lam_interval
        tl, th = run_ai.real_bracket(160)
        assert lo * tl <= 1 <= hi * th
        assert par.lam_exact is None
        assert 0 < lo <= hi < 1

    def test_validations(self):
        with pytest.raises(ValueError):
            bernoulli_params(Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(ValueError):
            bernoulli_params(Fraction(1, 2), Fraction(3, 2))
        with pytest.raises(ValueError):
            params_from_theta(AlgebraicInteger.from_poly((1, -1)), Fraction(1, 2))


class TestFourier:
    def test_zero_frequency_is_one(self):
        par = bernoulli_params(Fraction(1, 2), Fraction(1, 3))
        fv = bc_fourier(par, 0, 10)
        assert fv.value == complex(1, 0)
        assert fv.tail_log_bound == 0.0

    def test_quarter_phase_vanishes_exactly(self):
        par = bernoulli_params(Fraction(1, 2), Fraction(1, 2))
        assert bc_fourier(par, Fraction(1, 4), 8).value == 0j
        # integer frequencies reach a quarter phase after two halvings
        assert bc_fourier(par, 1, 12).value == 0j
        assert bc_fourier(par, 5, 14).value == 0j

    def test_point_mass_bias_is_unimodular(self):
        par = bernoulli_params(Fraction(1, 2), 1)
        for xi in (Fraction(1, 3), Fraction(7, 5), 2):
            assert abs(abs(bc_fourier(par, xi, 14).value) - 1) < 1e-12

    def test_unbiased_equals_cosine_product(self):
        par = bernoulli_params(Fraction(2, 3), Fraction(1, 2))
        for xi in (Fraction(1, 7), Fraction(22, 7), Fraction(5, 2)):
            fv = bc_fourier(par, xi, 40)
            prod = 1.0
            for k in range(40):
                prod *= math.cos(2 * math.pi * float(Fraction(2, 3) ** k * xi))
            assert abs(fv.value - prod) < 1e-12

    def test_biased_matches_exponential_oracle(self):
        par = bernoulli_params(Fraction(3, 5), Fraction(3, 10))
        for xi in (Fraction(1, 7), Fraction(9, 4), 3):
            fv = bc_fourier(par, xi, 30)
            oracle = exp_product(Fraction(3, 5), 0.3, xi, 30)
            assert abs(fv.value - oracle) < 1e-12

    def test_conjugate_symmetry_exact(self):
        par = bernoulli_params(Fraction(3, 5), Fraction(3, 10))
        for xi in (Fraction(1, 7), Fraction(9, 4), 3, Fraction(13, 11)):
            fv = bc_fourier(par, xi, 30)
            fm = bc_fourier(par, -xi, 30)
            assert fm.value == fv.value.conjugate()

    def test_tail_bound_dominates_refinement(self):
        par = bernoulli_params(Fraction(3, 4), Fraction(2, 5))
        for xi in (Fraction(3, 7), Fraction(11, 5)):
            coarse = bc_fourier(par, xi, 25)
            fine = bc_fourier(par, xi, 60)
            gap = abs(
                math.log(abs(fine.value)) - math.log(abs(coarse.value))
            )
            assert gap <= coarse.tail_log_bound + 1e-12

    def test_tail_bound_formula(self):
        par = bernoulli_params(Fraction(1, 2), Fraction(1, 4))
        fv = bc_fourier(par, Fraction(3, 2), 20)
        pq = 4 * 0.25 * 0.75
        phase0 = 2 * math.pi * 0.5**20 * 1.5
        expect = (
            2 * math.pi**2 * pq * 1.5**2 * 0.5 ** 40 / (1 - 0.25)
            / (1 - phase0**2)
        )
        assert fv.tail_log_bound == pytest.approx(expect, rel=1e-12)

    def test_algebraic_ratio_certified_phases(self, run_ai):
        par = params_from_theta(run_ai, Fraction(1, 2))
        fv = bc_fourier(par, Fraction(3, 2), 25)
        assert abs(fv.value) <= 1 + 1e-12
        theta = (1 + math.sqrt(13)) / 2
        prod = 1.0
        for k in range(25):
            prod *= math.cos(2 * math.pi * theta**-k * 1.5)
        assert abs(fv.value - prod) < 1e-9

    def test_not_converged(self):
        par = bernoulli_params(Fraction(1, 2), Fraction(1, 2))
        with pytest.raises(TailNotConverged):
            bc_fourier(par, 1000, 3)
        with pytest.raises(ValueError):
            bc_fourier(par, 1, -1)

    @settings(max_examples=60, deadline=None)
    @given(
        num=st.integers(1, 8),
        den=st.integers(9, 20),
        p_num=st.integers(0, 10),
        xi_num=st.integers(-40, 40),
        xi_den=st.integers(1, 9),
    )
    # 2 pi (8/9)^40 * 9 = 0.5085: the first omitted phase breaks the guard
    @example(num=8, den=9, p_num=0, xi_num=9, xi_den=1)
    def test_modulus_never_exceeds_one(self, num, den, p_num, xi_num, xi_den):
        par = bernoulli_params(Fraction(num, den), Fraction(p_num, 10))
        xi = Fraction(xi_num, xi_den)
        # bc_fourier's documented precondition: 2 pi lam^n_terms |xi| < 1/2
        hi = par.lam_interval[1]
        if 2 * math.pi * float(hi**40) * abs(float(xi)) >= 0.5:
            for x in (xi, -xi):
                with pytest.raises(TailNotConverged):
                    bc_fourier(par, x, 40)
            return
        fv = bc_fourier(par, xi, 40)
        assert abs(fv.value) <= 1 + 1e-12
        assert bc_fourier(par, -xi, 40).value == fv.value.conjugate()


class TestLogDecayScan:
    def test_running_scan_frozen(self, run_ai):
        rep = bc_log_decay_scan(
            run_ai, Fraction(3, 10), 40,
            u_grid=(1, Fraction(13, 10), Fraction(17, 10)),
        )
        assert rep.alpha == pytest.approx(0.009814251978836485, rel=1e-12)
        assert len(rep.rows) == 3 * 41
        assert rep.sup_value == pytest.approx(0.4275351345542857, rel=1e-9)
        assert rep.truncation < 1e-12

    def test_chain_inequality_pointwise(self, run_ai):
        for p in (Fraction(3, 10), Fraction(1, 2), Fraction(4, 5)):
            rep = bc_log_decay_scan(
                run_ai, p, 30, u_grid=(1, Fraction(13, 10), Fraction(17, 10))
            )
            for row in rep.rows:
                assert row.modulus <= row.bound_chain + 1e-10

    def test_scan_values_trend_down(self, run_ai):
        rep = bc_log_decay_scan(
            run_ai, Fraction(3, 10), 40,
            u_grid=(1, Fraction(13, 10), Fraction(17, 10)),
        )
        by_n = {}
        for row in rep.rows:
            by_n[row.N] = max(by_n.get(row.N, 0.0), row.scan_value)
        early = max(by_n[n] for n in range(11))
        late = max(by_n[n] for n in range(30, 41))
        assert late < early / 100

    def test_zero_frequency_row(self, run_ai):
        rep = bc_log_decay_scan(run_ai, Fraction(1, 2), 0, u_grid=(0,))
        row = rep.rows[0]
        assert row.modulus == 1.0
        assert row.bound_chain == 1.0
        assert row.scan_value == math.log(2) ** rep.alpha

    def test_default_grid_spans_to_theta(self, run_ai):
        rep = bc_log_decay_scan(run_ai, Fraction(1, 2), 2)
        us = sorted({row.u for row in rep.rows})
        assert us[0] == 1.0
        assert us[-1] <= float(run_ai.theta)
        assert len(us) >= 13  # theta about 2.30: 1.0, 1.1, ..., 2.3

    def test_refusals(self, run_ai, golden_ai):
        with pytest.raises(WrongClass):
            bc_log_decay_scan(golden_ai, Fraction(1, 2), 5)
        with pytest.raises(ValueError):
            bc_log_decay_scan(run_ai, 0, 5)
        with pytest.raises(ValueError):
            bc_log_decay_scan(run_ai, 1, 5)
        with pytest.raises(ValueError):
            bc_log_decay_scan(run_ai, Fraction(1, 2), -1)
        with pytest.raises(ValueError):
            bc_log_decay_scan(run_ai, Fraction(1, 2), 5, u_grid=(100,))


class TestErdosNondecay:
    def test_golden_floor_positive(self, golden_ai):
        rep = erdos_nondecay(golden_ai, 25)
        assert rep.positive
        assert rep.floor == pytest.approx(0.00048687414289395637, rel=1e-9)
        assert rep.running_inf == tuple(
            min(rep.values[: i + 1]) for i in range(26)
        )

    def test_values_match_lucas_oracle(self, golden_ai):
        # phi^k = L_k - psi^k with psi = -1/phi, so cos(2 pi phi^k)
        # equals cos(2 pi |psi|^k); the tail frequencies phi^(-j) have the
        # same form, giving an independent product formula
        rep = erdos_nondecay(golden_ai, 25)
        b = 2 / (1 + math.sqrt(5))
        for N in (0, 1, 5, 12, 25):
            oracle = 1.0
            for k in range(N + 1):
                oracle *= math.cos(2 * math.pi * b**k)
            for j in range(1, 120):
                oracle *= math.cos(2 * math.pi * b**j)
            assert rep.values[N] == pytest.approx(abs(oracle), rel=1e-9)

    def test_single_point(self, golden_ai):
        rep = erdos_nondecay(golden_ai, 0)
        assert rep.N_values == (0,)
        assert rep.values[0] == pytest.approx(0.022065224736741582, rel=1e-9)

    def test_plateau_stabilizes(self, golden_ai):
        # the PV phenomenon: values approach a positive limit, so far-out
        # samples sit within a factor two of each other
        rep = erdos_nondecay(golden_ai, 30)
        tail = rep.values[20:]
        assert max(tail) < 2 * min(tail)

    def test_refusals(self, run_ai, golden_ai):
        with pytest.raises(WrongClass):
            erdos_nondecay(run_ai, 5)
        with pytest.raises(ValueError):
            erdos_nondecay(golden_ai, -1)
        with pytest.raises(ValueError):
            erdos_nondecay(golden_ai, 5, p=0)


class TestContrast:
    def test_pv_floor_beats_nonpv_tail(self, run_ai, golden_ai):
        # both sides computed: the PV running infimum over N <= 25 exceeds
        # the non-PV transform value at N = 40 by many orders of magnitude
        floor = erdos_nondecay(golden_ai, 25).floor
        rep = bc_log_decay_scan(run_ai, Fraction(1, 2), 40, u_grid=(1,))
        v40 = next(r.modulus for r in rep.rows if r.N == 40)
        assert floor > 4e-4
        assert v40 < 1e-12
        assert floor > v40


# ---------------------------------------------------------------------------
# the Fraction phase table and factor the integer residues replaced


def ref_factor_from_phase(q: Fraction, one_minus_2p: float) -> complex:
    q = q - math.floor(q)
    sign = 1.0
    if 2 * q > 1:
        q = 1 - q
        sign = -1.0
    if q.denominator == 1:
        c, s = 1.0, 0.0
    elif q.denominator == 2:
        c, s = -1.0, 0.0
    elif q.denominator == 4:
        c, s = 0.0, 1.0
    else:
        a = 2 * math.pi * float(q)
        c, s = math.cos(a), math.sin(a)
    return complex(c, one_minus_2p * sign * s)


def ref_phase_table(ai, u: Fraction, count: int, extra_bits: int = 70):
    """Fractional part of the midpoint of u theta^k and the distance of
    twice it to the integers, on a fresh bracket per power."""
    if u == 0:
        return [(Fraction(0), Fraction(0))] * count
    log2_theta = max(1, math.ceil(math.log2(float(ai.theta)) + 1e-9))
    el = ZThetaElement.from_int(1, ai.degree)
    out = []
    for k in range(count):
        lo, hi = zt_value_interval(el, ai, extra_bits + log2_theta * (k + 1))
        mid = (lo + hi) / 2 * u
        frac = mid - math.floor(mid)
        two = 2 * mid - math.floor(2 * mid)
        out.append((frac, min(two, 1 - two)))
        el = zt_mul_theta(el, ai)
    return out


def ref_scan_rows(ai, p: Fraction, N_max: int, u: Fraction):
    """(value, bound_chain) of every scan row at grid point u."""
    th_lo, th_hi = ai.real_bracket(60)
    th_mid = float((th_lo + th_hi) / 2)
    depth = int(math.ceil(8 * math.log(10) / math.log(th_mid))) + 1
    one_minus_2p = 1 - 2 * float(p)
    cp = (1 - float(p)) / 2
    small = complex(1, 0)
    x = float(u)
    for _ in range(depth):
        x *= 1 / th_mid
        small *= complex(math.cos(2 * math.pi * x), one_minus_2p * math.sin(2 * math.pi * x))
    prefix, chain, rows = complex(1, 0), 1.0, []
    for q, d2 in ref_phase_table(ai, u, N_max + 1):
        prefix *= ref_factor_from_phase(q, one_minus_2p)
        chain *= 1 - cp * float(d2) ** 2
        rows.append((prefix * small, chain))
    return rows


def ref_fourier_product(params, xi, n_terms: int) -> complex:
    one_minus_2p = 1 - 2 * float(params.p)
    xif = Fraction(xi)
    value = complex(1, 0)
    if xif == 0:
        return value
    if params.lam_exact is not None:
        x = xif
        for _ in range(n_terms):
            value *= ref_factor_from_phase(x, one_minus_2p)
            x *= params.lam_exact
        return value
    lo, hi = params.lam_interval
    plo, phi = Fraction(1), Fraction(1)
    for _ in range(n_terms):
        mid = (min(plo * xif, phi * xif) + max(plo * xif, phi * xif)) / 2
        value *= ref_factor_from_phase(mid - math.floor(mid), one_minus_2p)
        plo, phi = plo * lo, phi * hi
    return value


def _grid_points(ai, n: int):
    """Seeded u = k/DENOM in [0, theta], with 0, 1 and the quarter points."""
    rng = random.Random(str(ai.poly))
    top = int(DENOM * ai.real_bracket(30)[0])
    fixed = [Fraction(0), Fraction(1), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    return fixed + [Fraction(rng.randint(1, top), DENOM) for _ in range(n)]


class TestIntegerPhaseOracles:
    def test_scan_rows_match_fraction_table(self, run_ai):
        p = Fraction(3, 10)
        grid = _grid_points(run_ai, 60)
        for i, u in enumerate(grid):
            N_max = 150 if i % 10 == 0 else 40
            rep = bc_log_decay_scan(run_ai, p, N_max, u_grid=(u,))
            got = [(r.value, r.bound_chain) for r in rep.rows]
            assert pickle.dumps(got) == pickle.dumps(ref_scan_rows(run_ai, p, N_max, u)), u

    def test_phase_tables_match_on_other_thetas(self):
        for poly in (GOLDEN_POLY, PLASTIC_POLY, (1, 0, -1, -2)):
            ai = AlgebraicInteger.from_poly(poly)
            for u in _grid_points(ai, 8) + [Fraction(-7, 3)]:
                table = _certified_phase_table(ai, u, 40)
                want = ref_phase_table(ai, u, 40)
                assert [(Fraction(*q), Fraction(*d)) for q, d in table] == want

    def test_erdos_values_match_fraction_table(self, golden_ai):
        plastic = AlgebraicInteger.from_poly(PLASTIC_POLY)
        for ai, p in ((golden_ai, Fraction(1, 2)), (plastic, Fraction(1, 3))):
            th_lo, th_hi = ai.real_bracket(60)
            th_mid = float((th_lo + th_hi) / 2)
            depth = int(math.ceil(10 * math.log(10) / math.log(th_mid))) + 1
            omp = 1 - 2 * float(p)
            small = complex(1, 0)
            x = 1.0
            for _ in range(depth):
                x *= 1 / th_mid
                small *= complex(math.cos(2 * math.pi * x), omp * math.sin(2 * math.pi * x))
            table = ref_phase_table(ai, Fraction(1), 301)
            for N_max in (0, 1, 30, 300):
                prefix, want = complex(1, 0), []
                for q, _ in table[: N_max + 1]:
                    prefix *= ref_factor_from_phase(q, omp)
                    want.append(abs(prefix * small))
                got = erdos_nondecay(ai, N_max, p=p).values
                assert pickle.dumps(got) == pickle.dumps(tuple(want))

    def test_fourier_matches_fraction_factor(self, run_ai, golden_ai):
        params = [
            bernoulli_params(Fraction(1, 2), Fraction(1, 2)),
            bernoulli_params(Fraction(2, 3), Fraction(1, 3)),
            bernoulli_params(Fraction(1, 3), Fraction(1, 5)),
            params_from_theta(run_ai, Fraction(3, 10)),
            params_from_theta(golden_ai, Fraction(1, 2)),
        ]
        xis = [Fraction(1, 4), Fraction(-3, 4), Fraction(1, 2), 1, -17, Fraction(123, 7),
               Fraction(5, 2), 0.3, Fraction(-1, 8)]
        count = 0
        for par in params:
            for xi in xis:
                got = bc_fourier(par, xi, 40).value
                assert pickle.dumps(got) == pickle.dumps(ref_fourier_product(par, xi, 40))
                count += 1
        assert count == 45

    def test_long_algebraic_products_match_the_exact_enclosure(self, run_ai):
        # the enclosure ends of lam^n are rounded outward to one dyadic
        # scale; the phases move by less than 2^-300 here, so no factor
        # moves by an ulp against the exact products of the bracket ends
        par = params_from_theta(run_ai, Fraction(3, 10))
        for xi in (Fraction(1, 3), Fraction(-7, 3), Fraction(10, 3)):
            got = bc_fourier(par, xi, 100).value
            assert pickle.dumps(got) == pickle.dumps(ref_fourier_product(par, xi, 100))

    def test_wide_ratio_enclosure_is_refused(self, run_ai):
        # the widest phase enclosure is |xi| (hi - lo), at the second term
        lam = (Fraction(4343, 10**4), Fraction(4343, 10**4) + Fraction(1, 2**40))
        wide = BernoulliParams(lam_interval=lam, p=Fraction(1, 2))
        with pytest.raises(PrecisionExhausted):
            bc_fourier(wide, 2**11, 60)
        bc_fourier(wide, 2**9, 60)
        bc_fourier(params_from_theta(run_ai, Fraction(1, 2)), 2**11, 60)

    def test_quarter_periods_are_exact(self):
        # r/m on a quarter period, in any unreduced form and sign
        factor = bernoulli._factor_from_phase
        for m in (4, 8, 12, 4 * 100003):
            assert factor(0, m, 0.5) == complex(1.0, 0.0)
            assert factor(m // 2, m, 0.5) == complex(-1.0, 0.0)
            assert factor(m // 4, m, 0.5) == complex(0.0, 0.5)
            assert factor(-m // 4, m, 0.5) == complex(0.0, -0.5)
            assert factor(3 * m // 4 + 5 * m, m, 0.5) == complex(0.0, -0.5)


class TestPowerMemo:
    def test_request_past_the_cap_stores_the_cap(self, golden_ai, monkeypatch):
        monkeypatch.setattr(bernoulli, "_POWER_ROWS", 8)
        bernoulli._power_enclosures.cache_clear()
        u = Fraction(7, 5)
        table = _certified_phase_table(golden_ai, u, 20)
        assert [(Fraction(*q), Fraction(*d)) for q, d in table] == ref_phase_table(
            golden_ai, u, 20
        )
        assert len(bernoulli._power_enclosures(golden_ai, 70)[1]) == 8
        # a longer request extends the eight stored rows and agrees
        assert _certified_phase_table(golden_ai, u, 25)[:20] == table
        assert len(bernoulli._power_enclosures(golden_ai, 70)[1]) == 8
        bernoulli._power_enclosures.cache_clear()

    def test_interleaved_requests_give_identical_tables(self, run_ai, golden_ai):
        bernoulli._power_enclosures.cache_clear()
        want = {}
        for ai in (run_ai, golden_ai):
            for u in (Fraction(1), Fraction(13, 10), Fraction(2, 3)):
                want[ai.poly, u] = ref_phase_table(ai, u, 60)
        rng = random.Random(3)
        brackets = []
        real = AlgebraicInteger.real_bracket
        for _ in range(40):
            ai = rng.choice((run_ai, golden_ai))
            u = rng.choice((Fraction(1), Fraction(13, 10), Fraction(2, 3)))
            count = rng.randint(1, 60)
            table = _certified_phase_table(ai, u, count)
            assert len(table) == count
            assert [(Fraction(*q), Fraction(*d)) for q, d in table] == want[ai.poly, u][:count]
        # once both thetas hold 60 rows, a request fetches no bracket
        for ai in (run_ai, golden_ai):
            _certified_phase_table(ai, Fraction(1), 60)

        def spy(self, width_bits):
            brackets.append(width_bits)
            return real(self, width_bits)

        AlgebraicInteger.real_bracket = spy
        try:
            _certified_phase_table(run_ai, Fraction(5, 4), 60)
            _certified_phase_table(golden_ai, Fraction(1, 7), 17)
        finally:
            AlgebraicInteger.real_bracket = real
        assert brackets == []
