"""Oracle tests for the exact algebraic core shared by ``flows``,
``substitution.perron_data`` and ``riesz.as_exact``.

The reference functions below are the versions that core replaced: Q(theta)
arithmetic on tuples of ``Fraction``s (reduction, products, the inverse by
the extended Euclidean algorithm, power-form interval enclosures, Gaussian
elimination over the field) and ``perron_data``'s own ``Fraction``
bisection.  Fields of degree <= 2 give the same rationals on both routes,
so those comparisons are exact ``==``.  In degree 3 the Horner enclosure is
nested inside the power-form one, and the tests assert that nesting.
"""

from __future__ import annotations

import math
import pickle
import random
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest

from subspectral import algebraic
from subspectral.cli import main as cli_main
from subspectral.flows import (
    _field_generator,
    _self_similar_distances,
    _theta_min_poly,
    flow_dioph_constants,
    flow_product_bound,
    length_identity_defect,
    make_flow,
    self_similar_roof,
    twisted_ergodic_integral,
)
from subspectral.riesz import as_exact, phi_recursive
from subspectral.spectral import _dist_to_int
from subspectral.substitution import (
    Substitution,
    char_poly,
    find_return_word,
    perron_data,
    substitution_matrix,
)

RUNNING = Substitution.from_images(["1222", "1"])
TRIBONACCI = Substitution.from_images(["12", "13", "1"])
CASES = {
    "running": RUNNING,
    "running3": RUNNING.power(3),
    "fibonacci": Substitution.from_images(["12", "1"]),
    "symmetric": Substitution.from_images(["1112", "1222"]),
    "thue_morse": Substitution.from_images(["12", "21"]),
    "period_doubling": Substitution.from_images(["12", "11"]),
    "doubling": Substitution.from_images(["11"]),
    "tribonacci": TRIBONACCI,
    "cubic": Substitution.from_images(["112", "23", "31"]),
}
CUBIC_CASES = ("tribonacci", "cubic")
# (x - 1)^2 (x - 4): mp.polyroots does not converge on it at 400 bits
REPEATED_ROOT = Substitution.from_images(["1123", "2213", "3312"])


# ---------------------------------------------------------------------------
# reference Q(theta) arithmetic on tuples of Fractions (power basis,
# descending monic minimal polynomial)


def _fq_reduce(coeffs, min_poly):
    d = len(min_poly) - 1
    tail = min_poly[1:]
    work = list(coeffs)
    for i in range(len(work) - 1, d - 1, -1):
        c = work[i]
        if c:
            work[i] = Fraction(0)
            for j in range(1, d + 1):
                work[i - j] -= c * tail[j - 1]
    out = work[:d]
    while len(out) < d:
        out.append(Fraction(0))
    return tuple(out)


def _fq_mul(a, b, min_poly):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _fq_reduce(out, min_poly)


def _fq_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _fq_scale(a, c):
    return tuple(x * c for x in a)


def _fq_is_zero(a):
    return all(x == 0 for x in a)


def _fq_one(d):
    return tuple(Fraction(int(i == 0)) for i in range(d))


def _fq_theta(min_poly):
    d = len(min_poly) - 1
    if d == 1:
        return (Fraction(-min_poly[1], min_poly[0]),)
    return tuple(Fraction(int(i == 1)) for i in range(d))


def _poly_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    while len(a) >= len(b) and any(a):
        while a and a[-1] == 0:
            a.pop()
        if len(a) < len(b):
            break
        c = a[-1] / b[-1]
        k = len(a) - len(b)
        q[k] = c
        for i in range(len(b)):
            a[k + i] -= c * b[i]
        a.pop()
    return q, a


def _fq_inv(a, min_poly):
    r0 = [Fraction(c) for c in reversed(min_poly)]
    r1 = list(a)
    while r1 and r1[-1] == 0:
        r1.pop()
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while True:
        q, r = _poly_divmod(r0, r1)
        while r and r[-1] == 0:
            r.pop()
        if not any(r):
            break
        s_next = list(s0) + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qc in enumerate(q):
            for j, sc in enumerate(s1):
                s_next[i + j] -= qc * sc
        r0, r1, s0, s1 = r1, r, s1, s_next
    lead = r1[-1]
    return _fq_reduce([x / lead for x in s1], min_poly)


def _fq_eval_interval(a, lo, hi):
    """Power-form enclosure of sum a_i theta^i over theta in [lo, hi], lo > 0."""
    plo, phi = [Fraction(1)], [Fraction(1)]
    for _ in range(1, len(a)):
        plo.append(plo[-1] * lo)
        phi.append(phi[-1] * hi)
    out_lo = out_hi = Fraction(0)
    for i, c in enumerate(a):
        if c >= 0:
            out_lo += c * plo[i]
            out_hi += c * phi[i]
        else:
            out_lo += c * phi[i]
            out_hi += c * plo[i]
    return out_lo, out_hi


def _field_nullspace(A, min_poly, d):
    m = len(A)
    zero = tuple(Fraction(0) for _ in range(d))
    M = [row[:] for row in A]
    pivots = {}
    r = 0
    for col in range(m):
        sel = next((i for i in range(r, m) if not _fq_is_zero(M[i][col])), None)
        if sel is None:
            continue
        M[r], M[sel] = M[sel], M[r]
        inv = _fq_inv(M[r][col], min_poly)
        M[r] = [_fq_mul(x, inv, min_poly) for x in M[r]]
        for i in range(m):
            if i != r and not _fq_is_zero(M[i][col]):
                f = M[i][col]
                M[i] = [
                    _fq_add(x, _fq_scale(_fq_mul(f, y, min_poly), Fraction(-1)))
                    for x, y in zip(M[i], M[r])
                ]
        pivots[col] = r
        r += 1
    f0 = next(c for c in range(m) if c not in pivots)
    vec = [zero] * m
    vec[f0] = _fq_one(d)
    for col, row in pivots.items():
        vec[col] = _fq_scale(M[row][f0], Fraction(-1))
    return vec


def ref_self_similar_roof(zeta, precision_bits):
    """(s_coords, roof, theta_interval, roof_width) by elimination over the
    field, the sign orientation of the eigenvector, the field inverse of
    its sum and power-form enclosures."""
    S = substitution_matrix(zeta)
    m = zeta.m
    St = [[Fraction(S[j][i]) for j in range(m)] for i in range(m)]
    min_poly = _theta_min_poly(zeta)
    d = len(min_poly) - 1
    zero = tuple(Fraction(0) for _ in range(d))
    theta_el = _fq_theta(min_poly)
    A = [
        [
            _fq_add(
                _fq_scale(_fq_one(d), St[i][j]),
                _fq_scale(theta_el, Fraction(-1)) if i == j else zero,
            )
            for j in range(m)
        ]
        for i in range(m)
    ]
    vec = _field_nullspace(A, min_poly, d)
    if d == 1:
        if all(v[0] <= 0 for v in vec):
            vec = [_fq_scale(v, Fraction(-1)) for v in vec]
        total = sum(v[0] for v in vec)
        roof = tuple(v[0] / total for v in vec)
        theta = theta_el[0]
        return tuple((r,) for r in roof), roof, (theta, theta), Fraction(0)
    ai = _field_generator(min_poly)
    width_bits = max(96, precision_bits)
    lo, hi = ai.real_bracket(width_bits)
    vals = [_fq_eval_interval(v, lo, hi) for v in vec]
    if all(vhi < 0 for _, vhi in vals):
        vec = [_fq_scale(v, Fraction(-1)) for v in vec]
    total = vec[0]
    for v in vec[1:]:
        total = _fq_add(total, v)
    inv_total = _fq_inv(total, min_poly)
    coords = tuple(_fq_mul(v, inv_total, min_poly) for v in vec)
    target = Fraction(1, 2**precision_bits)
    vals = [_fq_eval_interval(c, lo, hi) for c in coords]
    while max(vhi - vlo for vlo, vhi in vals) > 2 * target:
        width_bits *= 2
        lo, hi = ai.real_bracket(width_bits)
        vals = [_fq_eval_interval(c, lo, hi) for c in coords]
    roof = tuple((vlo + vhi) / 2 for vlo, vhi in vals)
    return coords, roof, (lo, hi), target


def _weighted(weights, s_coords, d):
    out = [Fraction(0)] * d
    for w, row in zip(weights, s_coords):
        for j in range(d):
            out[j] += w * row[j]
    return tuple(out)


def ref_self_similar_distances(flow, word, omega, count):
    m, d = flow.zeta.m, len(flow.min_poly) - 1
    counts = [list(word).count(a) for a in range(1, m + 1)]
    cur = tuple(c * omega for c in _weighted(counts, flow.s_coords, d))
    theta_el = _fq_theta(flow.min_poly)
    ai = _field_generator(flow.min_poly)
    width_bits = 96
    lo, hi = ai.real_bracket(width_bits)
    out = []
    for _ in range(count):
        while True:
            vlo, vhi = _fq_eval_interval(cur, lo, hi)
            if vhi - vlo < Fraction(1, 2**48):
                break
            width_bits *= 2
            lo, hi = ai.real_bracket(width_bits)
        if math.floor(vhi) >= math.ceil(vlo):
            out.append(Fraction(0))
        else:
            out.append(min(_dist_to_int(vlo), _dist_to_int(vhi)))
        cur = _fq_mul(cur, theta_el, flow.min_poly)
    return out


def ref_length_identity_defect(flow, word, n):
    m, d = flow.zeta.m, len(flow.min_poly) - 1
    counts = [list(word).count(a) for a in range(1, m + 1)]
    el = _weighted(counts, flow.s_coords, d)
    for _ in range(n):
        el = _fq_mul(el, _fq_theta(flow.min_poly), flow.min_poly)
    S = substitution_matrix(flow.zeta)
    for _ in range(n):
        counts = [sum(S[i][j] * counts[j] for j in range(m)) for i in range(m)]
    mat = _weighted(counts, flow.s_coords, d)
    if mat == el:
        return Fraction(0)
    dlo, dhi = _fq_eval_interval(
        tuple(a - b for a, b in zip(mat, el)), *flow.theta_interval
    )
    return max(abs(dlo), abs(dhi))


# ---------------------------------------------------------------------------
# reference perron_data bracket: polyroots seed, exact widening, Fraction
# bisection


def _poly_eval_fraction(asc, x):
    acc = Fraction(0)
    for c in reversed(asc):
        acc = acc * x + c
    return acc


def ref_theta_interval(S, precision_bits):
    coeffs = char_poly(S)
    with mp.workprec(max(precision_bits, 53) + 64):
        mp_coeffs = [mp.mpf(c) for c in reversed(coeffs)]
        try:
            roots = mp.polyroots(mp_coeffs, maxsteps=200, extraprec=100)
        except mp.libmp.NoConvergence:
            # the seed retry perron_data makes where the seed stalls
            with mp.workprec(53 + 64):
                roots = mp.polyroots(mp_coeffs, maxsteps=200, extraprec=100)
        theta_approx = mp.re(max(roots, key=lambda z: abs(z)))
        delta = Fraction(1, 2**40)
        mid = algebraic._mpf_to_fraction(theta_approx)
        lo, hi = mid - delta, mid + delta
        while _poly_eval_fraction(coeffs, lo) == 0:
            lo -= delta
        while _poly_eval_fraction(coeffs, hi) == 0:
            hi += delta
        while (_poly_eval_fraction(coeffs, lo) > 0) == (
            _poly_eval_fraction(coeffs, hi) > 0
        ):
            delta *= 2
            lo, hi = mid - delta, mid + delta
        target = Fraction(1, 2**precision_bits)
        sign_lo = _poly_eval_fraction(coeffs, lo) > 0
        while hi - lo > target:
            c = (lo + hi) / 2
            val = _poly_eval_fraction(coeffs, c)
            if val == 0:
                return c, c
            if (val > 0) == sign_lo:
                lo = c
            else:
                hi = c
    return lo, hi


# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _roof(name, bits):
    """The flow and the reference (s_coords, roof, theta_interval,
    roof_width) for one case."""
    zeta = CASES[name]
    return self_similar_roof(zeta, bits), ref_self_similar_roof(zeta, bits)


class TestSelfSimilarRoof:
    @pytest.mark.parametrize("bits", [160, 400])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_field_elimination(self, name, bits):
        flow, (coords, roof, interval, width) = _roof(name, bits)
        assert flow.s_coords == coords
        assert flow.theta_interval == interval
        assert flow.roof_width == width
        if name not in CUBIC_CASES:
            assert flow.roof == roof
            return
        # Horner enclosures nest inside the power-form ones, at the same
        # bracket, and both midpoints lie within roof_width of the entry
        lo, hi = interval
        for c, x, x_ref in zip(coords, flow.roof, roof):
            rlo, rhi = _fq_eval_interval(c, lo, hi)
            den = math.lcm(*(v.denominator for v in c))
            hlo, hhi = algebraic.qt_value_interval(
                [int(v * den) for v in c], den, lo, hi
            )
            assert rlo <= hlo <= hhi <= rhi
            assert x == (hlo + hhi) / 2
            assert abs(x - x_ref) <= width

    @pytest.mark.parametrize("name", sorted(set(CASES) - set(CUBIC_CASES)))
    def test_pickles_match_for_degree_up_to_two(self, name):
        flow, (coords, roof, interval, width) = _roof(name, 160)
        min_poly = _theta_min_poly(CASES[name])
        ref = type(flow)(
            zeta=flow.zeta,
            roof=roof,
            self_similar=True,
            theta=flow.theta,
            theta_interval=interval,
            min_poly=min_poly,
            s_coords=coords,
            roof_width=width,
        )
        assert pickle.dumps(flow) == pickle.dumps(ref)


class TestPerronBisection:
    @pytest.mark.parametrize("bits", [64, 96, 160, 400])
    @pytest.mark.parametrize("power", [1, 3])
    @pytest.mark.parametrize("name", sorted(CASES))
    def test_theta_interval_matches_fraction_bisection(self, name, power, bits):
        S = substitution_matrix(CASES[name].power(power) if power > 1 else CASES[name])
        interval = perron_data(S, bits).theta_interval
        ref = ref_theta_interval(S, bits)
        assert interval == ref
        # an exact root is one shared Fraction, as pickled before
        assert pickle.dumps(interval) == pickle.dumps(ref)

    def test_repeated_root_seeded_at_lower_precision(self):
        S = substitution_matrix(REPEATED_ROOT)
        for bits in (64, 400):
            assert perron_data(S, bits).theta_interval == (4, 4)

    def test_repeated_root_cli_exit_code(self, tmp_path):
        config = tmp_path / "circ.json"
        config.write_text('{"alphabet": 3, "images": ["1123", "2213", "3312"]}')
        for bits in ("64", "400"):
            argv = ["flow", "cocycle", "--config", str(config)]
            assert cli_main(argv + ["--precision-bits", bits]) == 2


@pytest.fixture(scope="module")
def flow_run3():
    flow = self_similar_roof(CASES["running3"])
    return flow, flow_dioph_constants(flow, "1", k_max=20)


class TestFieldPaths:
    def test_enclosure_against_power_form(self):
        # equal for values linear in theta, nested inside it above that
        rng = random.Random(3)
        for _ in range(300):
            d = rng.choice((1, 2, 3, 4))
            coords = [
                Fraction(rng.randrange(-50, 51), rng.randrange(1, 30)) for _ in range(d)
            ]
            lo = Fraction(rng.randrange(1, 1000), rng.randrange(1, 100))
            hi = lo + Fraction(rng.randrange(0, 50), rng.randrange(1, 1000))
            den = math.lcm(*(c.denominator for c in coords))
            nums = [int(c * den) for c in coords]
            hlo, hhi = algebraic.qt_value_interval(nums, den, lo, hi)
            rlo, rhi = _fq_eval_interval(coords, lo, hi)
            if d <= 2:
                assert (hlo, hhi) == (rlo, rhi)
            else:
                assert rlo <= hlo <= hhi <= rhi

    def test_distances_and_product_bound_match(self, flow_run3):
        flow, consts = flow_run3
        rng = random.Random(7)
        for _ in range(40):
            om = Fraction(rng.randrange(1, 4 * 10007), 10007)
            R = Fraction(40 * 2 ** rng.randrange(7))
            fb = flow_product_bound(flow, "1", om, R, consts)
            ref = ref_self_similar_distances(flow, (1,), om, fb.n_star + 1)
            assert list(fb.distances) == ref
            product = Fraction(1)
            for d in ref:
                product *= 1 - consts.c1 * d * d
            assert fb.product == product
            assert fb.bound == consts.Cpp * R * product
            assert _self_similar_distances(flow, (1, 2), om, 12) == (
                ref_self_similar_distances(flow, (1, 2), om, 12)
            )

    def test_product_bound_pickles_match(self, flow_run3):
        flow, consts = flow_run3
        om, R = Fraction(3, 7), Fraction(2560)
        fb = flow_product_bound(flow, "1", om, R, consts)
        dists = ref_self_similar_distances(flow, (1,), om, fb.n_star + 1)
        product = Fraction(1)
        for d in dists:
            product *= 1 - consts.c1 * d * d
        ref = type(fb)(
            omega=om,
            R=R,
            n_star=fb.n_star,
            distances=tuple(dists),
            product=product,
            bound=consts.Cpp * R * product,
            exact_path=True,
        )
        assert pickle.dumps(fb) == pickle.dumps(ref)

    @pytest.mark.parametrize("name", ["running", "running3", "fibonacci", "symmetric"])
    def test_length_identity_defect_matches(self, name):
        flow, _ = _roof(name, 160)
        for word in ((1,), (1, 2), (2, 2, 1)):
            for n in (0, 1, 7, 20):
                assert length_identity_defect(flow, word, n) == (
                    ref_length_identity_defect(flow, word, n)
                )

    def test_length_identity_defect_on_a_perturbed_flow(self, flow_run3):
        # coordinates off the eigenvector give a nonzero certified gap
        flow, _ = flow_run3
        coords = ((flow.s_coords[0][0] + Fraction(1, 3), flow.s_coords[0][1]),) + (
            flow.s_coords[1:]
        )
        bent = type(flow)(**{**flow.__dict__, "s_coords": coords})
        for n in (1, 5, 9):
            gap = length_identity_defect(bent, (1, 2), n)
            assert gap > 0
            assert gap == ref_length_identity_defect(bent, (1, 2), n)


class TestCubicFlow:
    @pytest.fixture(scope="class")
    def trib(self):
        return self_similar_roof(TRIBONACCI)

    def test_eigen_identity_in_the_field(self, trib):
        S = substitution_matrix(TRIBONACCI)
        theta_el = _fq_theta(trib.min_poly)
        total = (Fraction(0),) * 3
        for i, c in enumerate(trib.s_coords):
            image = _weighted([S[j][i] for j in range(3)], trib.s_coords, 3)
            assert image == _fq_mul(theta_el, c, trib.min_poly)
            total = _fq_add(total, c)
        assert total == (1, 0, 0)

    def test_length_identity_to_depth_30(self, trib):
        for word in ((1,), (1, 2), (1, 3, 2, 1)):
            for n in range(31):
                assert length_identity_defect(trib, word, n) == 0

    def test_roof_enclosures_within_width(self, trib):
        bits = 160
        lo, hi = trib.theta_interval
        for c, x in zip(trib.s_coords, trib.roof):
            den = math.lcm(*(v.denominator for v in c))
            vlo, vhi = algebraic.qt_value_interval(
                [int(v * den) for v in c], den, lo, hi
            )
            assert vhi - vlo <= 2 * Fraction(1, 2**bits)
            assert vlo < x < vhi
        assert trib.roof_width == Fraction(1, 2**bits)

    def test_product_bound_on_the_return_word_power(self):
        rw = find_return_word(TRIBONACCI)
        assert rw.v == (1,) and rw.power == 5
        flow = self_similar_roof(TRIBONACCI.power(rw.power))
        consts = flow_dioph_constants(flow, "1", k_max=20)
        rng = random.Random(11)
        for _ in range(6):
            om = Fraction(rng.randrange(1, 3000), 1009)
            fb = flow_product_bound(flow, "1", om, Fraction(10**6), consts)
            assert fb.exact_path
            assert fb.n_star >= 0
            # nested enclosures give distance bounds no smaller than the
            # power-form ones
            ref = ref_self_similar_distances(flow, (1,), om, fb.n_star + 1)
            assert all(d >= r for d, r in zip(fb.distances, ref))
            assert all(0 <= d <= Fraction(1, 2) for d in fb.distances)


NON_FINITE = [mp.inf, -mp.inf, mp.nan]


class TestNonFiniteMpf:
    @pytest.mark.parametrize("x", NON_FINITE, ids=["inf", "-inf", "nan"])
    def test_as_exact_refuses(self, x):
        with pytest.raises(ValueError):
            as_exact(x)
        with pytest.raises(ValueError):
            algebraic._mpf_to_fraction(x)

    @pytest.mark.parametrize("x", NON_FINITE, ids=["inf", "-inf", "nan"])
    def test_riesz_entry_point_refuses(self, x):
        with pytest.raises(ValueError):
            phi_recursive(RUNNING, 1, 2, 5, x)

    @pytest.mark.parametrize("x", NON_FINITE, ids=["inf", "-inf", "nan"])
    def test_flow_entry_points_refuse(self, x):
        flow = _roof("running", 160)[0]
        with pytest.raises(ValueError):
            twisted_ergodic_integral(flow, 0, 0, 1, x, 100)
        with pytest.raises(ValueError):
            make_flow(RUNNING, [1, x])

    def test_finite_values_unchanged(self):
        assert as_exact(mp.mpf(0)) == 0
        assert as_exact(mp.mpf("-0.375")) == Fraction(-3, 8)
        assert as_exact(mp.mpf(2) ** -300) == Fraction(1, 2**300)
