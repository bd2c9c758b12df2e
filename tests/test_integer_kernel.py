"""Oracle tests for the scaled-integer kernel of ``algebraic`` and its users.

The reference functions below are the rational-arithmetic versions the
kernel replaced: plain ``Fraction`` bisection from the root disk, ``Fraction``
interval Horner evaluation, the ``Fraction`` nearest-integer split, the
``Fraction`` phase table and the window loop that scans every window per
query.  The kernel computes the same rationals on integers, so every
comparison here is exact ``==``.  The memo tests count the work a warm call
does (``polyroots`` calls, bisection midpoints).
"""

from __future__ import annotations

import math
import random
import sys
import threading
from fractions import Fraction
from functools import lru_cache

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspectral import algebraic
from subspectral.algebraic import (
    AlgebraicInteger,
    ZThetaElement,
    certify_roots,
    classify,
    prop_alg_constants,
    zt_mul_theta,
    zt_value_interval,
)
from subspectral.bernoulli import _certified_phase_table, _midpoint_phases
from subspectral.diophantine import (
    _certified_split,
    _normalize_t,
    _window_maxima,
    pisot_sequence,
    window_escape_check,
)
from subspectral.errors import PrecisionExhausted, WrongClass

CUBIC = (1, 0, -1, -2)  # x^3 - x - 2, complex pair of modulus > 1
PLASTIC = (1, 0, -1, -1)  # x^3 - x - 1
GOLDEN = (1, -1, -1)  # x^2 - x - 1
RUNNING = (1, -1, -3)  # x^2 - x - 3
SALEM4 = (1, -1, -1, -1, 1)  # x^4 - x^3 - x^2 - x + 1
ROOTS_2_3 = (1, -5, 6)  # (x - 2)(x - 3): bisection lands on the root 3
POLYS = {
    "cubic": CUBIC,
    "plastic": PLASTIC,
    "golden": GOLDEN,
    "running": RUNNING,
    "salem4": SALEM4,
}


@lru_cache(maxsize=None)
def _ai(poly) -> AlgebraicInteger:
    return AlgebraicInteger.from_poly(poly, 128)


# ---------------------------------------------------------------------------
# reference (rational) versions


def _poly_eval_frac(p, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in p:
        acc = acc * x + c
    return acc


@lru_cache(maxsize=None)
def ref_bisect_bracket(poly, lo: Fraction, hi: Fraction, width_bits: int):
    plo = _poly_eval_frac(poly, lo)
    phi = _poly_eval_frac(poly, hi)
    if plo == 0:
        return (lo, lo)
    if phi == 0:
        return (hi, hi)
    if (plo > 0) == (phi > 0):
        raise ArithmeticError("bracket does not straddle the root")
    sign_lo = plo > 0
    target = Fraction(1, 2**width_bits)
    while hi - lo > target:
        mid = (lo + hi) / 2
        val = _poly_eval_frac(poly, mid)
        if val == 0:
            return (mid, mid)
        if (val > 0) == sign_lo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def ref_real_bracket(ai: AlgebraicInteger, width_bits: int):
    lo, hi = ai.roots[ai.root_index].real_interval()
    return ref_bisect_bracket(ai.poly, lo, hi, width_bits)


def _interval_mul(a, b, c, d):
    vals = (a * c, a * d, b * c, b * d)
    return (min(vals), max(vals))


def ref_zt_value_interval(x: ZThetaElement, ai: AlgebraicInteger, width_bits: int):
    lo, hi = ref_real_bracket(ai, width_bits)
    acc = (Fraction(0), Fraction(0))
    for c in reversed(x.coords):
        acc = _interval_mul(acc[0], acc[1], lo, hi)
        acc = (acc[0] + c, acc[1] + c)
    return acc


def ref_split(lo: Fraction, hi: Fraction, err: Fraction):
    half = Fraction(1, 2)
    k = math.floor((lo + hi) / 2 + half)
    if math.floor(lo + half) == math.floor(hi + half) and (hi - lo) <= 2 * err:
        return k, (lo + hi) / 2 - k
    return None


def ref_pisot_sequence(ai: AlgebraicInteger, t, N: int, err: Fraction):
    """(K, eps, eps_num) as computed with Fraction intervals per term."""
    err = Fraction(err)
    x0, q = _normalize_t(ai, t)
    s = ai.degree
    half = Fraction(1, 2)
    coords = [x0]
    for _ in range(N - 1):
        coords.append(zt_mul_theta(coords[-1], ai))
    maxbit = max(max(abs(c) for c in x.coords).bit_length() for x in coords)
    err_bits = max(8, (err.denominator // max(err.numerator, 1)).bit_length())
    width = s * maxbit + q.bit_length() + err_bits + 64
    K, eps, eps_num = [], [], []
    for x in coords:
        if all(c == 0 for c in x.coords[1:]):
            val = Fraction(x.coords[0], q)
            k = math.floor(val + half)
            K.append(k)
            eps.append(val - k)
            eps_num.append(ZThetaElement((x.coords[0] - k * q,) + (0,) * (s - 1)))
            continue
        w = width
        while True:
            lo, hi = ref_zt_value_interval(x, ai, w)
            split = ref_split(lo / q, hi / q, err)
            if split is not None:
                k, e = split
                K.append(k)
                eps.append(e)
                eps_num.append(
                    ZThetaElement((x.coords[0] - k * q,) + tuple(x.coords[1:]))
                )
                break
            w *= 2
    return tuple(K), tuple(eps), tuple(eps_num)


def ref_phases(lo: Fraction, hi: Fraction, u: Fraction):
    a, b = lo * u, hi * u
    mid = (a + b) / 2
    q = mid - math.floor(mid)
    frac2 = 2 * mid - math.floor(2 * mid)
    return q, min(frac2, 1 - frac2)


def ref_phase_table(ai: AlgebraicInteger, u: Fraction, count: int, extra_bits=70):
    if u == 0:
        return [(Fraction(0), Fraction(0))] * count
    log2_theta = max(1, math.ceil(math.log2(float(ai.theta)) + 1e-9))
    el = ZThetaElement.from_int(1, ai.degree)
    out = []
    for k in range(count):
        bits = extra_bits + log2_theta * (k + 1)
        out.append(ref_phases(*ref_zt_value_interval(el, ai, bits), u))
        el = zt_mul_theta(el, ai)
    return out


def as_fractions(table):
    """A phase table of integer (r, m) pairs as the rationals r/m."""
    return [(Fraction(*q), Fraction(*d)) for q, d in table]


def ref_window_verdicts(ai, t, k_max, diagnostic=False, beta_override=None):
    """The window loop as it was: every window rescanned per query."""
    try:
        consts = prop_alg_constants(ai)
        beta = beta_override or consts.beta
        delta1 = consts.delta1
    except WrongClass:
        if not diagnostic:
            raise
        beta = beta_override or 2
        delta1 = Fraction(1, 1 + ai.degree * ai.height)
    need = k_max * beta
    err = Fraction(1, 2**60)
    while True:
        seq = pisot_sequence(ai, t, need, err=err)

        def window(k):
            best = Fraction(0)
            arg = k
            for i in range(k, k * beta):
                a = abs(seq.eps[i])
                if a > best:
                    best, arg = a, i
            if best - err >= delta1:
                return True, best, arg
            if best + err < delta1:
                return False, best, arg
            return None, best, arg

        if not any(window(k)[0] is None for k in range(1, k_max + 1)):
            break
        err /= 2**20
        if err < Fraction(1, 2**algebraic.PRECISION_CAP_BITS):
            raise PrecisionExhausted("window decision pinned at delta1")
    return beta, delta1, {k: window(k) for k in range(1, k_max + 1)}


# ---------------------------------------------------------------------------
# random inputs


def _random_t(rng: random.Random, s: int):
    kind = rng.randrange(3)
    if kind == 0:
        return Fraction(rng.randint(-5000, 5000), rng.randint(1, 3000))
    if kind == 1:
        return rng.randint(-20, 20)
    return ZThetaElement(tuple(rng.randint(-30, 30) for _ in range(s)))


# ---------------------------------------------------------------------------
# brackets


class TestBisection:
    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_brackets_match_fraction_bisection(self, name):
        ai = _ai(POLYS[name])
        rng = random.Random(11)
        widths = [1, 60, 64, 65, 128, 500, 300] + [rng.randint(1, 900) for _ in range(8)]
        for w in widths:
            assert ai.real_bracket(w) == ref_real_bracket(ai, w)

    @pytest.mark.parametrize("poly", [ROOTS_2_3, (1, 0, -4), (1, -3)])
    def test_rational_root_hit_exactly(self, poly):
        ai = AlgebraicInteger.from_poly(poly, 128)
        for w in (1, 64, 128, 200, 333, 700, 129):
            assert ai.real_bracket(w) == ref_real_bracket(ai, w)
        lo, hi = ai.real_bracket(2000)
        assert lo == hi and _poly_eval_frac(poly, lo) == 0

    def test_wider_request_resumes_from_cached_bracket(self, monkeypatch):
        ai = _ai(RUNNING)
        disk = ai.roots[ai.root_index]
        lo, hi = disk.real_interval()

        def steps(w):
            j = 0
            while (hi - lo) / 2**j > Fraction(1, 2**w):
                j += 1
            return j

        algebraic._root_bisection.cache_clear()
        evaluations = []
        real_sign = algebraic._poly_sign_scaled

        def counting_sign(p, num, den):
            evaluations.append(num)
            return real_sign(p, num, den)

        monkeypatch.setattr(algebraic, "_poly_sign_scaled", counting_sign)
        assert ai.real_bracket(150) == ref_real_bracket(ai, 150)
        # two end evaluations, then one midpoint per halving
        assert len(evaluations) == 2 + steps(150)
        before = len(evaluations)
        hits = algebraic._root_bisection.cache_info().hits
        assert ai.real_bracket(400) == ref_real_bracket(ai, 400)
        assert len(evaluations) - before == steps(400) - steps(150)
        assert algebraic._root_bisection.cache_info().hits == hits + 1
        before = len(evaluations)
        for w in (60, 150, 151, 399, 400):
            assert ai.real_bracket(w) == ref_real_bracket(ai, w)
        assert len(evaluations) == before

    def test_concurrent_refinement(self):
        ai = _ai(GOLDEN)
        widths = list(range(64, 640, 7))
        expected = {w: ref_real_bracket(ai, w) for w in widths}
        algebraic._root_bisection.cache_clear()
        ai.real_bracket(64)
        failures = []

        def worker(seed):
            rng = random.Random(seed)
            order = widths[:]
            rng.shuffle(order)
            for w in order:
                if ai.real_bracket(w) != expected[w]:
                    failures.append(w)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(th.is_alive() for th in threads)
        assert failures == []


# ---------------------------------------------------------------------------
# value enclosures


class TestValueInterval:
    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_matches_fraction_horner(self, name):
        ai = _ai(POLYS[name])
        rng = random.Random(5)
        for _ in range(40):
            coords = tuple(rng.randint(-(10**6), 10**6) for _ in range(ai.degree))
            if rng.random() < 0.2:
                coords = (rng.randint(-9, 9),) + (0,) * (ai.degree - 1)
            x = ZThetaElement(coords)
            w = rng.choice([1, 3, 64, 200, 555])
            assert zt_value_interval(x, ai, w) == ref_zt_value_interval(x, ai, w)

    def test_degree_one(self):
        ai = AlgebraicInteger.from_poly((1, -3), 128)
        for c in (-7, 0, 5):
            x = ZThetaElement((c,))
            assert zt_value_interval(x, ai, 90) == ref_zt_value_interval(x, ai, 90)


# ---------------------------------------------------------------------------
# the nearest-integer split


class TestSplit:
    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(-50, 50),
        st.booleans(),
        st.integers(-3, 3),
        st.integers(0, 40),
        st.integers(1, 64),
        st.integers(1, 400),
        st.integers(1, 64),
        st.booleans(),
    )
    def test_integer_split_matches_rational_split(
        self, m, at_half, offset, width, half_scale, err_num, err_den, tight
    ):
        # L / qS lies within a few units of an integer or of a half-integer
        # (the rounding boundary); with ``tight`` the width is exactly 2 err
        qS = 2 * half_scale
        L = m * qS + (half_scale if at_half else 0) + offset
        H = L + width
        err = Fraction(err_num, err_den)
        if tight and width > 0:
            err = Fraction(width, 2 * qS)
        got = _certified_split(L, H, qS, err)
        want = ref_split(Fraction(L, qS), Fraction(H, qS), err)
        if want is None:
            assert got is None
        else:
            # eps comes as an integer numerator over 2 qS
            k, n = got
            assert type(n) is int
            assert (k, Fraction(n, 2 * qS)) == want

    def test_boundaries(self):
        err = Fraction(1, 8)
        # eps numerators are over 2 qS = 32
        # width exactly 2 err is accepted, one unit more is refused
        assert _certified_split(0, 4, 16, err) == (0, Fraction(1, 8) * 32)
        assert _certified_split(0, 5, 16, err) is None
        # an enclosure reaching k + 1/2 from below straddles the tie
        assert _certified_split(7, 8, 16, err) is None
        # ties round up
        assert _certified_split(8, 8, 16, err) == (1, Fraction(-1, 2) * 32)
        assert _certified_split(-8, -8, 16, err) == (0, Fraction(-1, 2) * 32)
        assert _certified_split(-9, -9, 16, err) == (-1, Fraction(7, 16) * 32)


class TestPisotSequence:
    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_matches_fraction_sequence(self, name):
        ai = _ai(POLYS[name])
        rng = random.Random(name)
        for _ in range(12):
            t = _random_t(rng, ai.degree)
            N = rng.randint(1, 60)
            err = Fraction(1, 2 ** rng.randint(3, 80))
            seq = pisot_sequence(ai, t, N, err=err)
            assert (seq.K, seq.eps, seq.eps_num) == ref_pisot_sequence(ai, t, N, err)

    @pytest.mark.parametrize(
        "t",
        [
            ZThetaElement((-17, -4)),
            ZThetaElement((9, -30)),
            Fraction(-1733, 1000),
            -5,
            0,
            Fraction(7, 2),
        ],
    )
    def test_signs_and_exact_rational_terms(self, t):
        ai = _ai(RUNNING)
        seq = pisot_sequence(ai, t, 40, err=Fraction(1, 2**50))
        assert (seq.K, seq.eps, seq.eps_num) == ref_pisot_sequence(
            ai, t, 40, Fraction(1, 2**50)
        )

    def test_width_escalation(self, monkeypatch):
        # theta = 3 is rational, so t theta^k = 3^k / 2 sits on a half-integer
        # while its coordinates are not those of a rational: the enclosure
        # straddles the tie until the bracket lands on 3 itself
        ai = AlgebraicInteger.from_poly(ROOTS_2_3, 128)
        widths = []
        real = AlgebraicInteger.real_bracket

        def spy(self, width_bits):
            widths.append(width_bits)
            return real(self, width_bits)

        monkeypatch.setattr(AlgebraicInteger, "real_bracket", spy)
        t = Fraction(1, 2)
        seq = pisot_sequence(ai, t, 6)
        assert len(set(widths)) > 1
        assert len(widths) == len(set(widths))  # one fetch per width
        assert (seq.K, seq.eps, seq.eps_num) == ref_pisot_sequence(
            ai, t, 6, Fraction(1, 2**40)
        )
        assert seq.K[1:] == tuple((3**k + 1) // 2 for k in range(1, 6))

    def test_one_bracket_per_width(self, monkeypatch):
        ai = _ai(CUBIC)
        widths = []
        real = AlgebraicInteger.real_bracket

        def spy(self, width_bits):
            widths.append(width_bits)
            return real(self, width_bits)

        monkeypatch.setattr(AlgebraicInteger, "real_bracket", spy)
        pisot_sequence(ai, Fraction(3, 2), 80)
        assert len(widths) == 1


# ---------------------------------------------------------------------------
# phase tables


class TestPhaseTable:
    @pytest.mark.parametrize("name", sorted(POLYS))
    def test_matches_fraction_table(self, name):
        ai = _ai(POLYS[name])
        rng = random.Random(name + "phase")
        for _ in range(3):
            u = Fraction(rng.randint(-400, 400), rng.randint(1, 300))
            count = rng.randint(1, 40)
            extra = rng.choice([70, 10, 3])
            assert as_fractions(
                _certified_phase_table(ai, u, count, extra)
            ) == ref_phase_table(ai, u, count, extra)

    def test_integer_and_zero_u(self):
        ai = _ai(GOLDEN)
        for u in (Fraction(1), Fraction(-3), Fraction(0)):
            assert as_fractions(_certified_phase_table(ai, u, 30)) == ref_phase_table(
                ai, u, 30
            )

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-(10**9), 10**9),
        st.integers(0, 10**6),
        st.integers(1, 10**6),
        st.integers(-500, 500),
        st.integers(1, 500),
    )
    def test_midpoint_phases_match_rational(self, L, width, S, u_num, u_den):
        u = Fraction(u_num, u_den)
        H = L + width
        phases = _midpoint_phases(L + H, S, u.numerator, u.denominator)
        assert as_fractions([phases]) == [
            ref_phases(Fraction(L, S), Fraction(H, S), u)
        ]


# ---------------------------------------------------------------------------
# escape windows


class TestWindows:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 9), st.integers(1, 12), st.data())
    def test_window_maxima_first_argmax(self, beta, k_max, data):
        # small numerators over 3 give many ties and many zeros
        raw = data.draw(
            st.lists(st.integers(0, 4), min_size=k_max * beta, max_size=k_max * beta)
        )
        values = [Fraction(v, 3) for v in raw]
        want = []
        for k in range(1, k_max + 1):
            best, arg = Fraction(0), k
            for i in range(k, k * beta):
                if values[i] > best:
                    best, arg = values[i], i
            want.append((best, arg))
        assert _window_maxima(values, beta, k_max) == want

    @pytest.mark.parametrize(
        "poly, kwargs",
        [
            (RUNNING, {}),
            (CUBIC, {}),
            (RUNNING, {"beta_override": 3}),
            (GOLDEN, {"diagnostic": True}),
            (PLASTIC, {"diagnostic": True, "beta_override": 4}),
            (SALEM4, {"diagnostic": True}),
        ],
    )
    def test_report_matches_rescanning_loop(self, poly, kwargs):
        ai = _ai(poly)
        rng = random.Random(str(poly))
        for t in (Fraction(rng.randint(1000, 2302), 1000), 1, 0):
            k_max = rng.randint(1, 12)
            beta, delta1, verdicts = ref_window_verdicts(ai, t, k_max, **kwargs)
            report = window_escape_check(ai, t, k_max=k_max, **kwargs)
            assert report.beta == beta and report.delta1 == delta1
            for v in report.verdicts:
                ok, best, arg = verdicts[v.k]
                assert (v.passed, v.max_eps, v.argmax) == (bool(ok), float(best), arg)
            failing = [k for k, v in verdicts.items() if v[0] is False]
            assert report.k0 == (max(failing) + 6 if failing else 1)


# ---------------------------------------------------------------------------
# memoised root certification


class TestMemos:
    @pytest.mark.parametrize("poly", [RUNNING, CUBIC, (1, 0, 0, -1, -3)])
    def test_warm_constants_and_classification_certify_nothing(self, poly, monkeypatch):
        ai = AlgebraicInteger.from_poly(poly, 128)
        warm_cls = classify(ai)
        warm_consts = prop_alg_constants(ai)
        calls = []
        # roots are found in a private context per call, so the spy sits on
        # the method that every mpmath context shares
        contexts = type(mp.mp)
        real = contexts.polyroots

        def counting(ctx, *args, **kwargs):
            calls.append(args)
            return real(ctx, *args, **kwargs)

        monkeypatch.setattr(contexts, "polyroots", counting)
        assert classify(ai) == warm_cls
        assert prop_alg_constants(ai) == warm_consts
        assert calls == []
        # a cold recomputation certifies roots again and agrees
        algebraic._classification.cache_clear()
        algebraic._decay_constants.cache_clear()
        algebraic._certified_roots.cache_clear()
        assert prop_alg_constants(ai) == warm_consts
        assert classify(ai) == warm_cls
        assert calls

    def test_wrong_class_is_raised_on_every_call(self):
        ai = _ai(GOLDEN)
        for _ in range(2):
            with pytest.raises(WrongClass):
                prop_alg_constants(ai)

    def test_certify_roots_memo_accepts_any_sequence(self):
        assert certify_roots([1, -1, -3], 96) == certify_roots((1, -1, -3), 96)
        info = algebraic._certified_roots.cache_info()
        certify_roots(iter((1, -1, -3)), 96)
        assert algebraic._certified_roots.cache_info().hits == info.hits + 1
