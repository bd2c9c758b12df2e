"""Tests for suspension flows: roofs, ergodic integrals, product bounds,
the growth cocycle, and the scaling experiments.

Oracles used here are independent of the implementation: direct per-tile
quadrature for twisted integrals, explicit tile walks for occupation times
and cocycle sums, and hand-derived exact eigenvector data for the worked
substitutions."""

import cmath
import math
import pickle
import random
from fractions import Fraction

import pytest

from subspectral.algebraic import AlgebraicInteger
from subspectral.errors import (
    BudgetExceeded,
    DegenerateF,
    NotMeanZero,
    NotPrimitive,
    WrongClass,
)
from subspectral.flows import (
    CocycleEvaluation,
    Eigen2Data,
    ErgodicIntegral,
    FlowProductBound,
    LogHolderTable,
    SuspensionFlow,
    ZeroScalingReport,
    _field_generator,
    cocycle_phi2,
    eigen2_data,
    ergodic_decomposition_check,
    flow_dioph_constants,
    flow_product_bound,
    length_identity_defect,
    level_lengths,
    log_holder_certificate,
    m_phi2_minus,
    make_flow,
    occupation_times,
    renormalize_anchor,
    self_similar_roof,
    twisted_ergodic_integral,
    word_tiling_length,
    zero_scaling_experiment,
)
from subspectral.spectral import dioph_constants
from subspectral.substitution import Substitution, fixed_point_prefix

RUNNING = Substitution.from_images(["1222", "1"])
RUNNING3 = RUNNING.power(3)
SYMMETRIC = Substitution.from_images(["1112", "1222"])
THUE_MORSE = Substitution.from_images(["12", "21"])
FIBONACCI = Substitution.from_images(["12", "1"])
DOUBLING = Substitution.from_images(["11"])


@pytest.fixture(scope="module")
def flow_run():
    return self_similar_roof(RUNNING)


@pytest.fixture(scope="module")
def flow_run3():
    return self_similar_roof(RUNNING3)


@pytest.fixture(scope="module")
def flow_sym():
    return self_similar_roof(SYMMETRIC)


def tile_quadrature(flow, anchor, u, a, om, R):
    """Independent oracle: closed-form integral of e^(-2 pi i om t) over
    every a-tile intersected with [0, R], walking tiles one by one."""
    need = int(float(R) / float(flow.min_roof)) + anchor + 3
    text = fixed_point_prefix(flow.zeta, need)[anchor:]
    t = -float(u)
    total = 0j
    omf = float(om)
    Rf = float(R)
    for c in text:
        dur = float(flow.roof[c - 1])
        lo, hi = max(0.0, t), min(Rf, t + dur)
        if hi > lo and c == a:
            if omf == 0:
                total += hi - lo
            else:
                total += (
                    cmath.exp(-2j * math.pi * omf * lo)
                    - cmath.exp(-2j * math.pi * omf * hi)
                ) / (2j * math.pi * omf)
        t += dur
        if t >= Rf:
            break
    return total


# ---------------------------------------------------------------------------
# roofs


class TestSelfSimilarRoof:
    def test_symmetric_roof_exact(self, flow_sym):
        assert flow_sym.roof == (Fraction(1, 2), Fraction(1, 2))
        assert flow_sym.self_similar
        assert flow_sym.theta == 4.0
        assert flow_sym.min_poly == (1, -4)
        assert flow_sym.roof_width == 0

    def test_running_roof_field_coordinates(self, flow_run):
        # s_1 = 3 - theta and s_2 = theta - 2 in the power basis (1, theta)
        assert flow_run.min_poly == (1, -1, -3)
        assert flow_run.s_coords == (
            (Fraction(3), Fraction(-1)),
            (Fraction(-2), Fraction(1)),
        )
        theta = (1 + math.sqrt(13)) / 2
        assert abs(float(flow_run.roof[0]) - (3 - theta)) < 1e-15
        assert abs(float(flow_run.roof[1]) - (theta - 2)) < 1e-15
        # simplex normalization holds exactly in coordinates: sum = (1, 0)
        total = tuple(
            sum(flow_run.s_coords[j][i] for j in range(2)) for i in range(2)
        )
        assert total == (Fraction(1), Fraction(0))
        # numeric midpoints sum to 1 within twice the certified width
        assert abs(sum(flow_run.roof) - 1) <= 2 * flow_run.roof_width

    def test_fibonacci_roof_golden(self):
        flow = self_similar_roof(FIBONACCI)
        # s_1 = phi - 1, s_2 = 2 - phi in the power basis (1, phi)
        assert flow.s_coords == (
            (Fraction(-1), Fraction(1)),
            (Fraction(2), Fraction(-1)),
        )
        phi = (1 + math.sqrt(5)) / 2
        assert abs(float(flow.roof[0]) - (phi - 1)) < 1e-15

    def test_thue_morse_roof_rational(self):
        flow = self_similar_roof(THUE_MORSE)
        assert flow.roof == (Fraction(1, 2), Fraction(1, 2))
        assert flow.theta == 2.0

    def test_single_letter(self):
        flow = self_similar_roof(DOUBLING)
        assert flow.roof == (Fraction(1),)
        assert flow.self_similar

    @pytest.mark.parametrize(
        "zeta", [RUNNING3, SYMMETRIC, FIBONACCI], ids=["running3", "sym", "fib"]
    )
    def test_one_perron_certificate_per_roof(self, zeta, monkeypatch):
        import subspectral.flows as fl

        calls = []
        real = fl.perron_data

        def spy(S, precision_bits=64):
            calls.append(precision_bits)
            return real(S, precision_bits)

        monkeypatch.setattr(fl, "perron_data", spy)
        flow = self_similar_roof(zeta, 200)
        assert calls == [200]
        # the zeta-only form certifies its own 96-bit bracket
        minpoly = fl._theta_min_poly
        assert minpoly(zeta) == flow.min_poly
        assert calls == [200, 96]
        # the roof of the two-certificate route pickles to the same bytes
        monkeypatch.setattr(fl, "_theta_min_poly", lambda z, bracket=None: minpoly(z))
        assert pickle.dumps(self_similar_roof(zeta, 200)) == pickle.dumps(flow)

    def test_not_primitive_refused(self):
        bad = Substitution.from_images(["1", "22"])
        with pytest.raises(NotPrimitive):
            self_similar_roof(bad)

    def test_length_identity_exact_to_depth_60(self, flow_run, flow_sym):
        for flow in (flow_run, flow_sym):
            for n in (0, 1, 7, 33, 60):
                assert length_identity_defect(flow, "12", n) == 0

    def test_level_lengths_match_matrix_action(self, flow_run):
        # |zeta(1)| in roof units = s_1 + 3 s_2 (image 1222)
        lens = level_lengths(flow_run, 1)
        assert lens[0] == flow_run.roof[0] + 3 * flow_run.roof[1]
        assert lens[1] == flow_run.roof[0]

    def test_word_tiling_length(self, flow_sym):
        assert word_tiling_length(flow_sym, "1122") == 2

    def test_make_flow_detects_self_similarity(self):
        assert make_flow(SYMMETRIC, [1, 1]).self_similar
        assert not make_flow(RUNNING, [1, 1]).self_similar
        assert not make_flow(SYMMETRIC, [1, 2]).self_similar

    def test_make_flow_normalizes(self):
        flow = make_flow(RUNNING, [1, 3])
        assert flow.roof == (Fraction(1, 4), Fraction(3, 4))
        raw = make_flow(RUNNING, [1, 3], normalize=False)
        assert raw.roof == (Fraction(1), Fraction(3))

    def test_roof_validations(self):
        with pytest.raises(ValueError):
            make_flow(RUNNING, [1])
        with pytest.raises(ValueError):
            make_flow(RUNNING, [1, 0])
        with pytest.raises(ValueError):
            SuspensionFlow(
                zeta=RUNNING,
                roof=(Fraction(1),),
                self_similar=False,
                theta=2.3,
                theta_interval=(Fraction(2), Fraction(3)),
            )


# ---------------------------------------------------------------------------
# twisted ergodic integrals


class TestTwistedErgodicIntegral:
    def test_zero_twist_is_exact_occupation(self, flow_run):
        ei = twisted_ergodic_integral(flow_run, 0, 0, 1, 0, 50)
        oracle = tile_quadrature(flow_run, 0, 0, 1, 0, 50)
        assert ei.correction_bound == 0.0
        assert abs(ei.value - oracle) < 1e-12
        assert ei.value.imag == 0.0

    def test_exact_prefix_matches_quadrature(self, flow_run, flow_sym):
        for flow in (flow_run, flow_sym):
            for N in (5, 17, 48):
                text = fixed_point_prefix(flow.zeta, N)
                R = sum(flow.roof[c - 1] for c in text)
                for om in (Fraction(1, 3), Fraction(7, 10), 1, Fraction(5, 2)):
                    ei = twisted_ergodic_integral(flow, 0, 0, 1, om, R)
                    oracle = tile_quadrature(flow, 0, 0, 1, om, R)
                    assert ei.correction_bound < 1e-12
                    assert abs(ei.value - oracle) < 1e-8

    def test_correction_bound_covers_the_gap(self, flow_run, flow_sym):
        rng = random.Random(20240817)
        for _ in range(50):
            flow = flow_run if rng.random() < 0.5 else flow_sym
            anchor = rng.randrange(0, 40)
            first = fixed_point_prefix(flow.zeta, anchor + 1)[anchor]
            u = Fraction(rng.randrange(0, 7), 11) * flow.roof[first - 1]
            a = 1 + rng.randrange(0, 2)
            om = Fraction(rng.randrange(1, 20), rng.randrange(1, 30))
            R = Fraction(rng.randrange(30, 400), 7)
            ei = twisted_ergodic_integral(flow, anchor, u, a, om, R)
            oracle = tile_quadrature(flow, anchor, u, a, om, R)
            assert abs(ei.value - oracle) <= ei.correction_bound + 1e-9

    def test_modulus_below_horizon(self, flow_run):
        rng = random.Random(5)
        for _ in range(20):
            om = Fraction(rng.randrange(1, 30), rng.randrange(1, 30))
            R = Fraction(rng.randrange(10, 200), 3)
            ei = twisted_ergodic_integral(flow_run, 0, 0, 1, om, R)
            assert abs(ei.value) <= float(R) + 1e-9

    def test_correction_bound_formula(self, flow_sym):
        # horizon ending mid-tile: bound = u + (R + u - last boundary)
        u = Fraction(1, 4)
        R = Fraction(10, 3)
        ei = twisted_ergodic_integral(flow_sym, 0, u, 1, Fraction(1, 3), R)
        horizon = R + u
        assert ei.R_effective <= horizon
        expected = float(u + horizon - ei.R_effective)
        assert ei.correction_bound == pytest.approx(expected, abs=1e-15)

    def test_deterministic(self, flow_run):
        a = twisted_ergodic_integral(flow_run, 3, Fraction(1, 8), 2, Fraction(3, 7), 77)
        b = twisted_ergodic_integral(flow_run, 3, Fraction(1, 8), 2, Fraction(3, 7), 77)
        assert a.value == b.value
        assert a.correction_bound == b.correction_bound

    def test_validations(self, flow_run):
        with pytest.raises(ValueError):
            twisted_ergodic_integral(flow_run, 0, 0, 5, 1, 10)
        with pytest.raises(ValueError):
            twisted_ergodic_integral(flow_run, -1, 0, 1, 1, 10)
        with pytest.raises(ValueError):
            twisted_ergodic_integral(flow_run, 0, 0, 1, 1, 0)
        with pytest.raises(ValueError):
            twisted_ergodic_integral(flow_run, 0, 2, 1, 1, 10)  # u past tile
        with pytest.raises(BudgetExceeded):
            twisted_ergodic_integral(flow_run, 0, 0, 1, 1, 10**9, budget=100)


# ---------------------------------------------------------------------------
# product bounds


@pytest.fixture(scope="module")
def run3_consts(flow_run3):
    return flow_dioph_constants(flow_run3, "1", k_max=12)


class TestFlowProductBound:
    def test_constants_absorb_roof_ratio(self, flow_run3):
        base = dioph_constants(RUNNING3, "1", k_max=12)
        consts = flow_dioph_constants(flow_run3, "1", k_max=12)
        assert consts.c1 == base.c1  # count side unchanged
        assert consts.c_lower == base.c_lower * flow_run3.min_roof
        assert consts.c_upper == base.c_upper * flow_run3.max_roof
        assert consts.Cprime == consts.c_upper / consts.c_lower
        lo = flow_run3.theta_interval[0]
        assert consts.C2 == pytest.approx(
            math.log(float(2 * consts.c_upper)) / math.log(float(lo)) + 1
        )

    def test_zero_twist_gives_prefactor_times_R(self, flow_run3, run3_consts):
        pb = flow_product_bound(flow_run3, "1", 0, 100, run3_consts)
        assert pb.bound == run3_consts.Cpp * 100
        assert all(d == 0 for d in pb.distances)
        assert pb.product == 1

    def test_small_R_empty_product(self, flow_run3, run3_consts):
        pb = flow_product_bound(flow_run3, "1", Fraction(1, 2), 2, run3_consts)
        assert pb.n_star < 0
        assert pb.distances == ()
        assert pb.bound == run3_consts.Cpp * 2

    def test_dominates_integrals_at_theta_power_ten(self, flow_run3, run3_consts):
        theta = (1 + math.sqrt(13)) / 2
        R = Fraction(int(theta**10 * 2**20), 2**20)
        pb = flow_product_bound(flow_run3, "1", 1, R, run3_consts)
        assert pb.exact_path
        rng = random.Random(99)
        for _ in range(20):
            anchor = rng.randrange(0, 3000)
            ei = twisted_ergodic_integral(flow_run3, anchor, 0, 1, 1, R)
            assert abs(ei.value) + ei.correction_bound <= float(pb.bound)

    def test_domination_grid(self, flow_run3, flow_sym, run3_consts):
        sym2 = self_similar_roof(SYMMETRIC.power(2))
        sym_consts = flow_dioph_constants(sym2, "1", k_max=10)
        cases = [(flow_run3, "1", run3_consts), (sym2, "1", sym_consts)]
        rng = random.Random(4)
        for flow, v, consts in cases:
            for om in (Fraction(1, 3), 1, Fraction(7, 5)):
                for R in (50, 300, 1500):
                    pb = flow_product_bound(flow, v, om, R, consts)
                    for _ in range(4):
                        anchor = rng.randrange(0, 500)
                        ei = twisted_ergodic_integral(flow, anchor, 0, 1, om, R)
                        assert (
                            abs(ei.value) + ei.correction_bound
                            <= float(pb.bound) + 1e-9
                        )

    def test_exact_path_matches_midpoint_lengths(self, flow_run3, run3_consts):
        # field-coordinate distances vs distances from the rational roof
        # midpoints: equal up to the certified roof width
        pb = flow_product_bound(
            flow_run3, "1", Fraction(3, 7), Fraction(9000), run3_consts
        )
        assert pb.exact_path
        from subspectral.spectral import _dist_to_int

        for k, dist in enumerate(pb.distances):
            Lk = level_lengths(flow_run3, k)[0]
            mid = _dist_to_int(Fraction(3, 7) * Lk)
            assert abs(float(dist) - float(mid)) < 1e-9

    def test_integer_theta_distances_exact(self, flow_sym):
        sym2 = self_similar_roof(SYMMETRIC.power(2))
        consts = flow_dioph_constants(sym2, "1", k_max=8)
        # |level-k image of "1"| in roof units = 16^k / 2; omega = 1/3
        pb = flow_product_bound(sym2, "1", Fraction(1, 3), 10**6, consts)
        expect = []
        val = Fraction(1, 2)
        for _ in range(pb.n_star + 1):
            x = Fraction(1, 3) * val
            frac = x - int(x)
            expect.append(min(frac, 1 - frac))
            val *= 16
        assert list(pb.distances) == expect

    def test_validations(self, flow_run3, run3_consts):
        with pytest.raises(ValueError):
            flow_product_bound(flow_run3, "12", 1, 100, run3_consts)
        with pytest.raises(ValueError):
            flow_product_bound(flow_run3, "1", 1, 0, run3_consts)


# ---------------------------------------------------------------------------
# log-Holder certificate


class TestLogHolderCertificate:
    def test_running_example(self, flow_run):
        tab = log_holder_certificate(flow_run, 4, [1e-2, 1e-3, 1e-4], k_max=12)
        assert tab.zeta_power == 3
        assert tab.c1 == Fraction(1, 76)
        assert tab.alpha == pytest.approx(0.009814251978836485, rel=1e-12)
        assert tab.gamma == pytest.approx(2 * float(tab.c1) * tab.alpha, rel=1e-12)
        assert len(tab.rows) == 9  # 3 default twists x 3 radii

    def test_rows_decrease_with_radius(self, flow_run):
        tab = log_holder_certificate(flow_run, 4, [1e-2, 1e-3, 1e-5], k_max=12)
        by_om = {}
        for row in tab.rows:
            by_om.setdefault(row.omega, []).append(row.bound)
        for bounds in by_om.values():
            assert all(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_regime_flags(self, flow_run):
        tab = log_holder_certificate(flow_run, 4, [1e-2, 1e-3], k_max=12)
        assert 1e-3 < tab.r0 < 1e-2
        for row in tab.rows:
            assert row.in_regime == (row.r <= tab.r0)

    def test_fejer_column_finite_positive(self, flow_run):
        tab = log_holder_certificate(flow_run, 4, [1e-2], k_max=12)
        for row in tab.rows:
            assert 0 <= row.fejer_direct < math.inf

    def test_pisot_refused(self):
        flow = self_similar_roof(FIBONACCI)
        with pytest.raises(WrongClass):
            log_holder_certificate(flow, 4, [1e-3])

    def test_validations(self, flow_run):
        with pytest.raises(ValueError):
            log_holder_certificate(flow_run, 1, [1e-3])
        with pytest.raises(ValueError):
            log_holder_certificate(flow_run, 4, [0.0], k_max=12)
        with pytest.raises(ValueError):
            log_holder_certificate(
                flow_run, 4, [1e-3], k_max=12, omega_grid=[8.0]
            )


# ---------------------------------------------------------------------------
# second-eigenvalue data and the cocycle


class TestEigen2Data:
    def test_symmetric_frozen(self, flow_sym):
        ed = eigen2_data(flow_sym)
        assert ed.theta2 == 2
        assert ed.e2 == (Fraction(1), Fraction(-1))
        assert ed.e2_star == (Fraction(1, 2), Fraction(-1, 2))

    def test_pairing_normalized(self, flow_sym):
        ed = eigen2_data(flow_sym)
        assert sum(a * b for a, b in zip(ed.e2, ed.e2_star)) == 1

    def test_wrong_class_cases(self, flow_run):
        with pytest.raises(WrongClass):
            eigen2_data(flow_run)  # irrational second eigenvalue
        with pytest.raises(WrongClass):
            eigen2_data(self_similar_roof(THUE_MORSE))  # second eigenvalue 0
        pd = self_similar_roof(Substitution.from_images(["12", "11"]))
        with pytest.raises(WrongClass):
            eigen2_data(pd)  # second eigenvalue -1
        with pytest.raises(WrongClass):
            eigen2_data(self_similar_roof(DOUBLING))  # one letter


def cocycle_oracle(flow, anchor, t, e2_star, theta2, depth=40):
    """Independent linear-walk oracle: sum e2* over full level-0 tiles,
    then refine the straddling tile through substitution images with
    weight 1/theta2 per level (exact rationals, integer eigenvalue)."""
    tt = Fraction(t)
    need = int(float(tt) / float(flow.min_roof)) + anchor + 3
    text = fixed_point_prefix(flow.zeta, need)[anchor:]
    total = Fraction(0)
    remaining = tt
    straddle = None
    for c in text:
        dur = flow.roof[c - 1]
        if dur <= remaining:
            total += e2_star[c - 1]
            remaining -= dur
            if remaining == 0:
                break
        else:
            straddle = c
            break
    scale = Fraction(1)
    theta_pow = Fraction(1)
    c = straddle
    k = 0
    while c is not None and remaining > 0 and k < depth:
        k += 1
        scale /= theta2
        theta_pow *= flow.theta_interval[0]
        nxt = None
        for dletter in flow.zeta.images[c - 1]:
            dur = flow.roof[dletter - 1] / theta_pow
            if dur <= remaining:
                total += scale * e2_star[dletter - 1]
                remaining -= dur
            else:
                nxt = dletter
                break
        c = nxt
    return total, remaining


class TestCocycle:
    def test_zero_time(self, flow_sym):
        ev = cocycle_phi2(flow_sym, 0, 0)
        assert ev.value == 0.0
        assert ev.error_bound == 0.0
        assert ev.exact

    def test_single_tile_values(self, flow_sym):
        # fixed point starts 1112...: anchor 0 tile has letter 1, anchor 3
        # tile has letter 2; one full tile yields the e2* entry exactly
        ev1 = cocycle_phi2(flow_sym, 0, Fraction(1, 2))
        assert ev1.value_exact == Fraction(1, 2)
        ev2 = cocycle_phi2(flow_sym, 3, Fraction(1, 2))
        assert ev2.value_exact == Fraction(-1, 2)

    def test_supertile_route_matches_linear_oracle(self, flow_sym):
        ed = eigen2_data(flow_sym)
        rng = random.Random(12)
        for _ in range(30):
            t = Fraction(rng.randrange(1, 40000), 16)
            ev = cocycle_phi2(flow_sym, 0, t, k_levels=30)
            oracle, leftover = cocycle_oracle(
                flow_sym, 0, t, ed.e2_star, ed.theta2, depth=30
            )
            assert abs(ev.value - float(oracle)) <= 2 * ev.error_bound + 1e-12

    def test_exact_at_tile_boundaries(self, flow_sym):
        # integer t is always a tile boundary (all tiles have length 1/2)
        ev = cocycle_phi2(flow_sym, 0, 37)
        assert ev.exact and ev.error_bound == 0.0
        ed = eigen2_data(flow_sym)
        oracle, leftover = cocycle_oracle(flow_sym, 0, 37, ed.e2_star, ed.theta2)
        assert leftover == 0
        assert ev.value_exact == oracle

    def test_renormalization_identity(self, flow_sym):
        # the cocycle over theta*t from the renormalized anchor equals
        # theta2 times the cocycle over t, within the stated errors
        rng = random.Random(11)
        for _ in range(60):
            anchor = rng.randrange(0, 800)
            t = Fraction(rng.randrange(1, 2000), 16)
            za = renormalize_anchor(flow_sym, anchor)
            ev1 = cocycle_phi2(flow_sym, anchor, t, k_levels=26)
            ev2 = cocycle_phi2(flow_sym, za, 4 * t, k_levels=26)
            gap = abs(ev2.value - 2 * ev1.value)
            assert gap <= ev2.error_bound + 2 * ev1.error_bound + 1e-9

    def test_growth_bound_fitted_then_verified(self, flow_sym):
        # fit the growth constant at moderate horizons, then verify it
        # (with a fixed factor-two margin) at horizons more than two
        # orders of magnitude larger: any exponent above one half would
        # overrun a constant margin over that much range
        alpha = 0.5
        rng = random.Random(21)

        def ratios(count, lo_t, hi_t, max_anchor):
            out = []
            for _ in range(count):
                anchor = rng.randrange(0, max_anchor + 1)
                t = Fraction(rng.randrange(lo_t * 16, hi_t * 16), 16)
                ev = cocycle_phi2(flow_sym, anchor, t, k_levels=30)
                v = abs(ev.value) + ev.error_bound
                out.append(v / max(1.0, float(t) ** alpha))
            return out

        C1 = max(ratios(150, 1, 4**6, 200))
        far = ratios(60, 4**8, 4**10, 0)
        assert max(far) <= 2 * C1

    def test_error_shrinks_with_depth(self, flow_sym):
        t = Fraction(10000, 7)
        errs = [
            cocycle_phi2(flow_sym, 0, t, k_levels=k).error_bound
            for k in (2, 6, 12, 20)
        ]
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-4

    def test_large_time_runs_logarithmically(self, flow_sym):
        t = Fraction(4) ** 12  # about 1.7e7; the linear walk would be huge
        ev = cocycle_phi2(flow_sym, 0, t)
        assert ev.exact
        assert abs(ev.value) <= 2 * float(t) ** 0.5

    def test_renormalize_anchor_values(self, flow_sym):
        assert renormalize_anchor(flow_sym, 0) == 0
        # prefix "1" maps to "1112": offset 1 -> 4
        assert renormalize_anchor(flow_sym, 1) == 4
        assert renormalize_anchor(flow_sym, 4) == 16

    def test_validations(self, flow_sym):
        with pytest.raises(ValueError):
            cocycle_phi2(flow_sym, 0, -1)
        with pytest.raises(ValueError):
            cocycle_phi2(flow_sym, 0, 1, k_levels=-1)


# ---------------------------------------------------------------------------
# pairing functional


class TestMPhi2Minus:
    def test_indicator_difference(self, flow_sym):
        assert m_phi2_minus(flow_sym, [1, -1]) == 1.0

    def test_zero_profile(self, flow_sym):
        assert m_phi2_minus(flow_sym, [0, 0]) == 0.0

    def test_constant_function_orthogonal_to_roof(self, flow_sym):
        # <e2, s> = 0 exactly: the constant function pairs to zero
        assert m_phi2_minus(flow_sym, [1, 1]) == 0.0

    def test_polynomial_profile_exact(self, flow_sym):
        # psi_1(t) = t on [0, 1/2]: integral 1/8; e2 = (1, -1)
        val = m_phi2_minus(flow_sym, [(0, 1), 0])
        assert val == 0.125

    def test_callable_matches_polynomial(self, flow_sym):
        poly = m_phi2_minus(flow_sym, [(0, 1), (1, 2)])
        call = m_phi2_minus(flow_sym, [lambda t: t, lambda t: 1 + 2 * t])
        assert call == pytest.approx(poly, abs=1e-10)

    def test_wrong_length(self, flow_sym):
        with pytest.raises(ValueError):
            m_phi2_minus(flow_sym, [1])


# ---------------------------------------------------------------------------
# occupation times and the decomposition


def occupation_oracle(flow, anchor, t):
    tt = Fraction(t)
    need = int(float(tt) / float(flow.min_roof)) + anchor + 3
    text = fixed_point_prefix(flow.zeta, need)[anchor:]
    out = [Fraction(0)] * flow.zeta.m
    remaining = tt
    for c in text:
        dur = flow.roof[c - 1]
        if dur <= remaining:
            out[c - 1] += dur
            remaining -= dur
            if remaining == 0:
                break
        else:
            out[c - 1] += remaining
            break
    return tuple(out)


class TestOccupationTimes:
    def test_matches_linear_oracle(self, flow_run, flow_sym):
        rng = random.Random(31)
        for flow in (flow_run, flow_sym):
            for _ in range(25):
                t = Fraction(rng.randrange(0, 30000), 16)
                assert occupation_times(flow, t) == occupation_oracle(flow, 0, t)

    def test_positive_anchor(self, flow_sym):
        t = Fraction(777, 8)
        assert occupation_times(flow_sym, t, x_anchor=13) == occupation_oracle(
            flow_sym, 13, t
        )

    def test_occupations_sum_to_horizon(self, flow_run):
        for t in (Fraction(0), Fraction(7, 3), Fraction(5000, 7)):
            assert sum(occupation_times(flow_run, t)) == t

    def test_large_horizon_supertile_route(self, flow_sym):
        t = Fraction(4) ** 12 + Fraction(1, 3)
        occ = occupation_times(flow_sym, t)
        assert sum(occ) == t


class TestErgodicDecomposition:
    def test_remainder_exponent_below_alpha(self, flow_sym):
        theta = 4
        grid = []
        for N in range(5, 13):
            T = Fraction(theta) ** N
            grid += [T, T + Fraction(17, 3), Fraction(3, 2) * T]
        rep = ergodic_decomposition_check(flow_sym, [1, -1], grid)
        assert rep.alpha == pytest.approx(0.5)
        assert rep.m_value == 1.0
        assert rep.max_exponent < 0.5

    def test_zero_horizon_row(self, flow_sym):
        rep = ergodic_decomposition_check(flow_sym, [1, -1], [0, 16])
        assert rep.rows[0].t == 0.0
        assert rep.rows[0].S_value == 0.0
        assert rep.rows[0].exponent is None

    def test_exact_boundary_drops_remainder(self, flow_sym):
        # at t = 4^N the window is a union of level-N supertiles; the main
        # term captures the integral exactly
        rep = ergodic_decomposition_check(flow_sym, [1, -1], [Fraction(4) ** 7])
        assert rep.rows[0].remainder == pytest.approx(0.0, abs=1e-9)

    def test_zero_function_all_zero(self, flow_sym):
        rep = ergodic_decomposition_check(flow_sym, [0, 0], [16, 64])
        for row in rep.rows:
            assert row.S_value == 0.0
            assert row.main_term == 0.0

    def test_refusals(self, flow_sym, flow_run):
        with pytest.raises(NotMeanZero):
            ergodic_decomposition_check(flow_sym, [1, 1], [16])
        with pytest.raises(WrongClass):
            ergodic_decomposition_check(flow_run, [1, -1], [16])
        with pytest.raises(ValueError):
            ergodic_decomposition_check(flow_sym, [1], [16])


# ---------------------------------------------------------------------------
# zero-frequency scaling


class TestZeroScaling:
    def test_ratio_spread_within_twenty_percent(self, flow_sym):
        rep = zero_scaling_experiment(flow_sym, [1, -1], range(4, 10))
        assert rep.alpha == pytest.approx(0.5)
        assert rep.spread <= 0.2
        assert len(rep.ratios) == 6

    def test_profile_scale_quadratic(self, flow_sym):
        base = zero_scaling_experiment(flow_sym, [1, -1], range(3, 6))
        scaled = zero_scaling_experiment(
            flow_sym, [1, -1], range(3, 6), psi_scale=3.0
        )
        for a, b in zip(scaled.ratios, base.ratios):
            assert a == pytest.approx(9 * b, rel=1e-12)

    def test_truncation_reported(self, flow_sym):
        rep = zero_scaling_experiment(flow_sym, [1, -1], range(3, 5))
        assert rep.truncation_error == pytest.approx(1e-12, rel=1e-6)

    def test_refusals(self, flow_sym, flow_run):
        with pytest.raises(DegenerateF):
            zero_scaling_experiment(flow_sym, [0, 0], range(3, 5))
        with pytest.raises(NotMeanZero):
            zero_scaling_experiment(flow_sym, [1, 1], range(3, 5))
        with pytest.raises(WrongClass):
            zero_scaling_experiment(flow_run, [1, -1], range(3, 5))
        with pytest.raises(ValueError):
            zero_scaling_experiment(flow_sym, [1, -1], [])
        with pytest.raises(ValueError):
            zero_scaling_experiment(flow_sym, [1, -1], range(3, 5), c=0)
        with pytest.raises(ValueError):
            zero_scaling_experiment(flow_sym, [1, -1], range(3, 5), anchors=0)
        with pytest.raises(ValueError):
            zero_scaling_experiment(
                flow_sym, [1, -1], range(3, 5), orbit_factor=1.0
            )


# ---------------------------------------------------------------------------
# the integer tile clock against the Fraction walks it replaced
#
# The reference functions below are the tile walks of twisted_ergodic_integral
# and cocycle_phi2 as they were written in Fraction arithmetic (the one of
# occupation_times is occupation_oracle above).  The integer clock changes
# how time is kept, not what is computed, so every output must compare
# equal, floats included.


def _reference_letters(flow, anchor, span):
    need = int(float(span) / float(flow.min_roof)) + 2
    return fixed_point_prefix(flow.zeta, anchor + need)[anchor:]


def fraction_ergodic_integral(flow, x_anchor, t_offset, a, omega, R):
    om, RR, u = Fraction(omega), Fraction(R), Fraction(t_offset)
    letters = _reference_letters(flow, x_anchor, RR + flow.max_roof)
    if om == 0:
        t_cur = -u
        total = Fraction(0)
        used = 0
        for c in letters:
            dur = flow.roof[c - 1]
            seg_lo = max(Fraction(0), t_cur)
            seg_hi = min(RR, t_cur + dur)
            if seg_hi > seg_lo:
                used += 1
                if c == a:
                    total += seg_hi - seg_lo
            t_cur += dur
            if t_cur >= RR:
                break
        return ErgodicIntegral(
            value=complex(float(total), 0.0),
            correction_bound=0.0,
            omega=om,
            R=RR,
            R_effective=RR,
            anchor=x_anchor,
            t_offset=u,
            tiles_used=used,
        )
    s_a = flow.roof[a - 1]
    pref = (cmath.exp(2j * math.pi * float((om * s_a) % 1)) - 1) / (
        2j * math.pi * float(om)
    )
    phase_sum = 0j
    t_cur = Fraction(0)
    used = 0
    horizon = RR + u
    for c in letters:
        dur = flow.roof[c - 1]
        if t_cur + dur > horizon:
            break
        t_cur += dur
        used += 1
        if c == a:
            phase_sum += cmath.exp(-2j * math.pi * float((om * t_cur) % 1))
    value = cmath.exp(2j * math.pi * float((om * u) % 1)) * pref * phase_sum
    return ErgodicIntegral(
        value=value,
        correction_bound=float(u + (horizon - t_cur)),
        omega=om,
        R=RR,
        R_effective=t_cur,
        anchor=x_anchor,
        t_offset=u,
        tiles_used=used,
    )


def fraction_cocycle_phi2(flow, x_anchor, t, k_levels=30):
    """cocycle_phi2 at a positive anchor and t > 0."""
    ed = eigen2_data(flow)
    tt = Fraction(t)
    e2s = ed.e2_star
    th2 = ed.theta2
    letters = _reference_letters(flow, x_anchor, tt + flow.max_roof)
    blocks = []
    remaining = tt
    straddle = None
    for c in letters:
        dur = flow.roof[c - 1]
        if dur <= remaining:
            blocks.append((0, c))
            remaining -= dur
            if remaining == 0:
                break
        else:
            straddle = c
            break
    total = Fraction(0)
    for level, c in blocks:
        total += th2**level * e2s[c - 1]
    depth = 0
    err = Fraction(0)
    lo, hi = flow.theta_interval
    exact_lengths = lo == hi
    c = straddle
    if c is not None and remaining > 0:
        scale = Fraction(1)
        theta_pow = Fraction(1)
        while depth < k_levels and remaining > 0:
            depth += 1
            scale /= th2
            theta_pow *= lo if exact_lengths else (lo + hi) / 2
            nxt = None
            for dletter in flow.zeta.images[c - 1]:
                dur = flow.roof[dletter - 1] / theta_pow
                if dur <= remaining:
                    total += scale * e2s[dletter - 1]
                    remaining -= dur
                else:
                    nxt = dletter
                    break
            if nxt is None:
                break
            c = nxt
        if remaining > 0:
            L = max(len(im) for im in flow.zeta.images)
            maxe = max(abs(x) for x in e2s)
            q = 1 / abs(th2)
            err = maxe * L * abs(scale) * q / (1 - q)
    exact = remaining == 0 and (exact_lengths or depth == 0)
    return CocycleEvaluation(
        x_id=x_anchor,
        t=tt,
        k_used=depth,
        value=float(total),
        error_bound=float(err),
        exact=exact,
        value_exact=total if exact else None,
    )


@pytest.fixture(scope="module")
def clock_flows(flow_run3, flow_sym):
    """The 160-bit self-similar roof of the cubed running example, and
    rational roofs whose denominators differ (so the clock's unit 1/D is
    finer than every tile)."""
    return (
        flow_run3,
        make_flow(RUNNING, [Fraction(2, 7), Fraction(5, 9)], normalize=False),
        make_flow(SYMMETRIC, [Fraction(3, 5), Fraction(7, 4)], normalize=False),
        flow_sym,
    )


def tile_end(flow, anchor, n):
    """Time from the anchor tile's start to the end of its n-th tile."""
    text = fixed_point_prefix(flow.zeta, anchor + n)[anchor:]
    return sum((flow.roof[c - 1] for c in text), Fraction(0))


class TestIntegerTileClock:
    def test_ergodic_integrals_match_fraction_walk(self, clock_flows):
        rng = random.Random(2718)
        for flow in clock_flows:
            for _ in range(40):
                anchor = rng.randrange(1, 400)
                first = fixed_point_prefix(flow.zeta, anchor + 1)[anchor]
                u = rng.choice(
                    [Fraction(0), flow.roof[first - 1] * Fraction(rng.randrange(1, 97), 97)]
                )
                om = rng.choice(
                    [
                        Fraction(0),
                        Fraction(rng.randrange(1, 2**22), 2**20),
                        Fraction(-rng.randrange(1, 60), rng.randrange(1, 60)),
                    ]
                )
                R = Fraction(rng.randrange(1, 6000), rng.randrange(1, 12))
                a = rng.randint(1, flow.zeta.m)
                args = (flow, anchor, u, a, om, R)
                assert twisted_ergodic_integral(*args) == fraction_ergodic_integral(*args)

    def test_horizon_on_a_tile_boundary(self, clock_flows):
        # R + u is the end of the n-th tile, so the last whole tile ends
        # exactly on the horizon of the integer clock
        for flow in clock_flows:
            for anchor in (0, 5, 97):
                first = fixed_point_prefix(flow.zeta, anchor + 1)[anchor]
                for n in (1, 2, 17, 60):
                    end = tile_end(flow, anchor, n)
                    for u in (Fraction(0), flow.roof[first - 1] / 3):
                        for om in (Fraction(0), Fraction(3, 7), Fraction(-5, 3)):
                            for a in (1, 2):
                                args = (flow, anchor, u, a, om, end - u)
                                ei = twisted_ergodic_integral(*args)
                                assert ei == fraction_ergodic_integral(*args)
                                assert ei.tiles_used == n
                                if om:
                                    assert ei.R_effective == end
                                    assert ei.correction_bound == float(u)

    def test_horizon_inside_the_anchor_tile(self, clock_flows):
        for flow in clock_flows:
            for anchor in (0, 3, 50):
                first = fixed_point_prefix(flow.zeta, anchor + 1)[anchor]
                s = flow.roof[first - 1]
                for u, R in ((s / 3, s / 4), (Fraction(0), s / 2)):
                    for om in (Fraction(0), Fraction(3, 7)):
                        for a in (1, 2):
                            args = (flow, anchor, u, a, om, R)
                            ei = twisted_ergodic_integral(*args)
                            assert ei == fraction_ergodic_integral(*args)
                            assert ei.tiles_used == (0 if om else 1)

    def test_occupation_times_match_fraction_walk(self, clock_flows):
        rng = random.Random(1618)
        for flow in clock_flows:
            for _ in range(30):
                anchor = rng.randrange(1, 400)
                t = rng.choice(
                    [
                        Fraction(rng.randrange(1, 9000), rng.randrange(1, 12)),
                        tile_end(flow, anchor, rng.randrange(1, 200)),
                    ]
                )
                assert occupation_times(flow, t, x_anchor=anchor) == (
                    occupation_oracle(flow, anchor, t)
                )

    def test_cocycle_matches_fraction_walk(self, clock_flows):
        rng = random.Random(1414)
        for flow in clock_flows[2:]:  # the flows with an integer theta2
            for _ in range(30):
                anchor = rng.randrange(1, 400)
                t = rng.choice(
                    [
                        Fraction(rng.randrange(1, 9000), rng.randrange(1, 12)),
                        tile_end(flow, anchor, rng.randrange(1, 200)),
                    ]
                )
                assert cocycle_phi2(flow, anchor, t) == fraction_cocycle_phi2(
                    flow, anchor, t
                )

    def test_product_bound_reuses_field_generator(
        self, flow_run3, run3_consts, monkeypatch
    ):
        args = (flow_run3, "1", Fraction(3, 7), Fraction(9000), run3_consts)
        _field_generator.cache_clear()
        cold = flow_product_bound(*args)
        calls = []
        from_poly = AlgebraicInteger.from_poly

        def counting(cls, *a, **kw):
            calls.append(a)
            return from_poly(*a, **kw)

        monkeypatch.setattr(AlgebraicInteger, "from_poly", classmethod(counting))
        assert flow_product_bound(*args) == cold
        assert calls == []
