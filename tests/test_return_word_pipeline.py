"""The return-word pipeline: one power search, one distance product, one
set of prefactors.

``substitution.return_word_power`` is the only place that searches powers
of a substitution, and ``spectral`` holds the one implementation of the
level distances, the product prod (1 - c1 d^2), the depth n* and the
prefactors (C', C2, C'').  The code they replaced is kept here as reference
functions: the power loops of ``spectral.return_word_power``,
``find_return_word`` and ``log_holder_certificate``, the product loops of
``birkhoff_sup_bound`` and ``flow_product_bound``, both n* lines and both
prefactor blocks.  Every value is an exact integer or Fraction (or a float
computed by the same operations), so the comparisons are ``==``, and the
dataclass results are also compared as pickles.
"""

from __future__ import annotations

import math
import pickle
import random
import time
from dataclasses import replace
from fractions import Fraction

import pytest

from subspectral import substitution
from subspectral.errors import BudgetExceeded, NotFound
from subspectral.flows import (
    FlowProductBound,
    SuspensionFlow,
    _self_similar_distances,
    flow_dioph_constants,
    flow_product_bound,
    log_holder_certificate,
    make_flow,
    self_similar_roof,
)
from subspectral.riesz import as_exact
from subspectral.spectral import (
    PI_SQUARED_UPPER,
    DiophProduct,
    birkhoff_sup_bound,
    dioph_constants,
    dioph_product_bound,
    eigenvalue_test,
    gamma_frequency,
    return_word_power,
    spectral_ball_bound,
)
from subspectral.substitution import (
    ReturnWord,
    Substitution,
    abelianization,
    as_word,
    find_return_word,
    is_primitive,
    iterate_word,
    lengths_at,
    perron_data,
    substitution_matrix,
    tiling_lengths_at,
)

RUNNING = Substitution.from_images(["1222", "1"])
THUE_MORSE = Substitution.from_images(["12", "21"])
FIBONACCI = Substitution.from_images(["12", "1"])
SYMMETRIC = Substitution.from_images(["1112", "1222"])
THREE = Substitution.from_images(["1123", "213", "32"])
TRIBONACCI = Substitution.from_images(["12", "13", "1"])
PERIOD_DOUBLING = Substitution.from_images(["12", "11"])
REPEATED_ROOT = Substitution.from_images(["1123", "2213", "3312"])
# the README's log-holder example taken to x^2 - x - 100: 1.5e8 letters at p = 8
WIDE = Substitution.from_images(["12222222222", "1111111111"])


def chain(m: int) -> Substitution:
    """1 -> 12, j -> j+1, m -> 1: slow growth, and "1" first returns inside
    every image at power 2m."""
    return Substitution(m, ((1, 2),) + tuple((j + 1,) for j in range(2, m)) + ((1,),))


SUBS = {
    "running": RUNNING,
    "running3": RUNNING.power(3),
    "fib": FIBONACCI,
    "sym": SYMMETRIC,
    "tm": THUE_MORSE,
    "three": THREE,
}
ALL = pytest.mark.parametrize("zeta", list(SUBS.values()), ids=list(SUBS))
TIER1 = dict(
    SUBS,
    trib=TRIBONACCI,
    pd=PERIOD_DOUBLING,
    rep=REPEATED_ROOT,
    wide=WIDE,
    chain6=chain(6),
    chain12=chain(12),
    chain20=chain(20),
)


# ---------------------------------------------------------------------------
# reference functions: the code the shared pipeline replaced


def ref_dist(x: Fraction) -> Fraction:
    f = x - math.floor(x)
    return min(f, 1 - f)


def ref_occurs(hay, needle) -> bool:
    if max(hay + needle) < 256:
        return bytes(needle) in bytes(hay)
    n = len(needle)
    return any(hay[i : i + n] == needle for i in range(len(hay) - n + 1))


def ref_check_return_word(zeta, v):
    """``spectral._check_return_word``: v + c inside every letter image."""
    c = v[0]
    if c in v[1:]:
        raise ValueError("a return word contains its first letter exactly once")
    for letter in v:
        if not 1 <= letter <= zeta.m:
            raise ValueError(f"letter {letter} outside alphabet 1..{zeta.m}")
    vc = v + (c,)
    for b in range(1, zeta.m + 1):
        if not ref_occurs(zeta.images[b - 1], vc):
            raise NotFound(f"missing from the image of {b}")
    return c


def ref_spectral_power(zeta, v, power_cap=24):
    """The power loop of the former ``spectral.return_word_power``: every
    letter expanded from scratch at each power."""
    word = as_word(v)
    c = word[0]
    if c in word[1:]:
        raise ValueError("a return word contains its first letter exactly once")
    vc = word + (c,)
    for p in range(1, power_cap + 1):
        if all(
            ref_occurs(iterate_word(zeta, b, p, max_len=10**7), vc)
            for b in range(1, zeta.m + 1)
        ):
            return p
    raise NotFound(f"no witnessing power up to {power_cap}")


def ref_flows_power(zeta, v):
    """The power loop of the former explicit-``v`` branch of
    ``log_holder_certificate``: the return-word check on zeta^p, p <= 12."""
    word = as_word(v)
    zeta_power = 1
    while True:
        try:
            ref_check_return_word(
                zeta.power(zeta_power) if zeta_power > 1 else zeta, word
            )
            return zeta_power
        except NotFound:
            zeta_power += 1
            if zeta_power > 12:
                raise


def ref_find_return_word(zeta, budget=64, power_cap=40, max_len=10**7):
    """The former ``find_return_word``: its own power loop over lazily
    expanded letters, stopped on the shortest image length; ``max_len`` is
    the letter budget of those expansions."""
    assert is_primitive(substitution_matrix(zeta)).primitive
    K = 0
    while max(lengths_at(zeta, K)) < 10 * budget and K < 64:
        K += 1
    text = iterate_word(zeta, 1, K, max_len=10**7)
    expansions = {}

    def letters_at(p):
        if p not in expansions:
            expansions[p] = [
                iterate_word(zeta, b, p, max_len=max_len)
                for b in range(1, zeta.m + 1)
            ]
        return expansions[p]

    for length in range(1, budget + 1):
        candidates = set()
        for i in range(len(text) - length + 1):
            v = text[i : i + length]
            c = v[0]
            if c in v[1:]:
                continue
            if bytes(v + (c,)) in bytes(text):
                candidates.add((c, v))
        for c, v in sorted(candidates):
            vc = v + (c,)
            for p in range(1, power_cap + 1):
                if min(lengths_at(zeta, p)) > max_len:
                    break
                if all(bytes(vc) in bytes(w) for w in letters_at(p)):
                    return ReturnWord(v=v, c=c, power=p)
    raise NotFound(f"no return word found within length budget {budget}")


def ref_level_lengths(zeta, v, n, roof):
    ab = abelianization(v, zeta.m)
    out = []
    for k in range(n):
        lens = lengths_at(zeta, k) if roof is None else tiling_lengths_at(zeta, k, roof)
        out.append(sum(ab[i] * lens[i] for i in range(zeta.m)))
    return out


def ref_spectral_prefactors(c_lower, c_upper, lo, hi, R):
    """The prefactor block of ``dioph_constants``."""
    Cprime = c_upper / c_lower
    C2 = math.log(float(2 * c_upper)) / math.log(float(lo)) + 1
    L = R
    Cpp = 4 * L * c_upper * hi * Cprime / (c_lower * (lo - 1))
    return Cprime, C2, Cpp


def ref_flow_dioph_constants(flow, v, k_max):
    """The former ``flow_dioph_constants`` with its own prefactor block."""
    base = dioph_constants(flow.zeta, v, k_max=k_max)
    c_lower = base.c_lower * flow.min_roof
    c_upper = base.c_upper * flow.max_roof
    lo = flow.theta_interval[0]
    hi = flow.theta_interval[1]
    C2 = math.log(float(2 * c_upper)) / math.log(float(lo)) + 1
    Cprime = c_upper / c_lower
    L = max(len(im) for im in flow.zeta.images)
    Cpp = 4 * L * c_upper * hi * Cprime / (c_lower * (lo - 1))
    return replace(
        base, Cprime=Cprime, C2=C2, Cpp=Cpp, c_lower=c_lower, c_upper=c_upper
    )


def ref_dioph_product_bound(zeta, omega, n, consts, roof=None):
    om = as_exact(omega)
    rf = None if roof is None else tuple(as_exact(s) for s in roof)
    lens = ref_level_lengths(zeta, consts.v, n, rf)
    distances = tuple(ref_dist(om * L) for L in lens)
    factors = tuple(1 - consts.c1 * d * d for d in distances)
    product = Fraction(1)
    for f in factors:
        product *= f
    per_letter = tuple(
        consts.Cprime * Fraction(L) * product for L in lengths_at(zeta, n)
    )
    return DiophProduct(
        omega=om, n=n, lengths=tuple(lens), distances=distances,
        factors=factors, product=product, per_letter=per_letter, roof=rf,
    )


def ref_birkhoff_sup_bound(zeta, omega, N, consts):
    """The former ``birkhoff_sup_bound``: its n* line and product loop."""
    om = as_exact(omega)
    lo_theta = math.log(float(N)) / math.log(consts.theta)
    n_star = math.floor(lo_theta - consts.C2 - 1e-9)
    if n_star < 0:
        return consts.Cpp * N
    product = Fraction(1)
    for L in ref_level_lengths(zeta, consts.v, n_star + 1, None):
        d = ref_dist(om * L)
        product *= 1 - consts.c1 * d * d
    return consts.Cpp * N * product


def ref_flow_product_bound(flow, omega, R, consts):
    """The former ``flow_product_bound``: its n* line, the rational branch's
    level loop and the product loop."""
    om, RR = as_exact(omega), as_exact(R)
    n_star = math.floor(
        math.log(float(RR)) / math.log(consts.theta) - consts.C2 - 1e-9
    )
    exact_path = (
        flow.s_coords is not None
        and flow.min_poly is not None
        and len(flow.min_poly) - 1 >= 2
    )
    if n_star < 0:
        return FlowProductBound(
            omega=om, R=RR, n_star=n_star, distances=(), product=Fraction(1),
            bound=consts.Cpp * RR, exact_path=exact_path,
        )
    count = n_star + 1
    if exact_path:
        dists = _self_similar_distances(flow, consts.v, om, count)
    else:
        ab = abelianization(consts.v, flow.zeta.m)
        dists = []
        for k in range(count):
            lens = tiling_lengths_at(flow.zeta, k, flow.roof)
            dists.append(ref_dist(om * sum(ab[i] * lens[i] for i in range(flow.zeta.m))))
    product = Fraction(1)
    for dd in dists:
        product *= 1 - consts.c1 * dd * dd
    return FlowProductBound(
        omega=om, R=RR, n_star=n_star, distances=tuple(dists), product=product,
        bound=consts.Cpp * RR * product, exact_path=exact_path,
    )


def same(a, b) -> bool:
    return a == b and pickle.dumps(a) == pickle.dumps(b)


def constants_for(zeta, k_max=12):
    rw = find_return_word(zeta)
    zp = zeta.power(rw.power) if rw.power > 1 else zeta
    return zp, dioph_constants(zp, rw.v, k_max=k_max)


def seeded_omegas(seed, count=30):
    rng = random.Random(seed)
    out = [Fraction(0), Fraction(1), Fraction(1, 2), 0.1, 1 / 3]
    out += [Fraction(rng.randint(-300, 300), rng.randint(1, 997)) for _ in range(count)]
    return out


# ---------------------------------------------------------------------------
# the power search


WORDS = ("1", "2", "12", "21", "122", "211", "13", "31", "123", "2131")


@pytest.mark.parametrize("key", list(SUBS))
def test_power_search_matches_both_former_loops(key):
    zeta = SUBS[key]
    for text in WORDS:
        v = as_word(text)
        if max(v) > zeta.m or v[0] in v[1:]:
            continue
        for cap in (1, 2, 3, 8):
            try:
                want = ref_spectral_power(zeta, v, cap)
            except (NotFound, BudgetExceeded) as exc:
                want = type(exc)
            try:
                got = return_word_power(zeta, v, cap)
            except (NotFound, BudgetExceeded) as exc:
                got = type(exc)
            assert got == want, (key, text, cap)
        try:
            got = return_word_power(zeta, v, power_cap=12)
        except (NotFound, BudgetExceeded) as exc:
            got = type(exc)
        # the former loop has no budget: run it only where zeta^12 is small
        if got is BudgetExceeded or (
            got is NotFound and max(lengths_at(zeta, 12)) > 10**5
        ):
            continue
        try:
            want = ref_flows_power(zeta, v)
        except NotFound:
            want = NotFound
        assert got == want, (key, text)


@pytest.mark.parametrize("key", list(TIER1))
def test_find_return_word_matches_former_search(key):
    zeta = TIER1[key]
    assert same(find_return_word(zeta), ref_find_return_word(zeta))


@pytest.mark.parametrize("m, cap", [(6, 12), (12, 24), (20, 40)])
def test_words_returning_at_each_cap(m, cap):
    # 12: log_holder_certificate, 24: return_word_power, 40: find_return_word
    zeta = chain(m)
    assert return_word_power(zeta, (1,), cap) == cap == ref_spectral_power(zeta, (1,), cap)
    with pytest.raises(NotFound):
        return_word_power(zeta, (1,), cap - 1)
    assert find_return_word(zeta, power_cap=cap) == ReturnWord((1,), 1, cap)
    if cap == 12:
        assert ref_flows_power(zeta, (1,)) == 12


def test_alphabets_past_one_byte_search_the_tuples():
    m = 260
    big = Substitution(m, (tuple(range(1, m + 1)),) + ((1,),) * (m - 1))
    for v in ((1,), (260, 1), (2, 3)):
        try:
            want = ref_spectral_power(big, v, 3)
        except NotFound:
            want = NotFound
        try:
            got = return_word_power(big, v, 3)
        except NotFound:
            got = NotFound
        assert got == want
    assert return_word_power(big, (1,)) == 3


def test_invalid_return_words_raise_value_error():
    for v in ("", (), "11", "121", "3", "13", (0,)):
        with pytest.raises(ValueError):
            return_word_power(RUNNING, v)
    with pytest.raises(NotFound):
        return_word_power(RUNNING, "1", power_cap=2)


def test_budget_is_checked_before_each_expansion(monkeypatch):
    # |zeta^p(b)| = (2, 3), (5, 8), (13, 21) for p = 1, 2, 3: "1" needs
    # p = 3, "2" needs p = 2, and the 10-letter sample is zeta^3(1)
    zeta = Substitution.from_images(["12", "221"])
    assert find_return_word(zeta, budget=1) == ReturnWord((1,), 1, 3)
    built = []
    expand = Substitution._expand

    def spy(self, word):
        out = expand(self, word)
        built.append(len(out))
        return out

    monkeypatch.setattr(substitution, "_EXPANSION_BUDGET", 13)
    monkeypatch.setattr(Substitution, "_expand", spy)
    with pytest.raises(BudgetExceeded):
        return_word_power(zeta, "1")
    assert built and max(built) <= 13
    # the search skips that candidate and takes "2"
    built.clear()
    assert find_return_word(zeta, budget=1) == ReturnWord((2,), 2, 2)
    assert max(built) <= 13
    # the former search leaked the budget error of its letter expansion
    with pytest.raises(BudgetExceeded):
        ref_find_return_word(zeta, budget=1, max_len=13)


def test_over_budget_word_is_refused_quickly():
    # "2112" never occurs, so the images would grow without bound
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        return_word_power(WIDE, "211")
    assert time.perf_counter() - t0 < 5


def test_dioph_constants_checks_the_images_themselves():
    with pytest.raises(NotFound, match="suitable power"):
        dioph_constants(RUNNING, "1")
    for v in ("", "11", "3"):
        with pytest.raises(ValueError):
            dioph_constants(RUNNING.power(3), v)


# ---------------------------------------------------------------------------
# distances, product, depth and prefactors


@ALL
def test_prefactors_match_the_dioph_block(zeta):
    zp, consts = constants_for(zeta)
    lo, hi = perron_data(substitution_matrix(zp), precision_bits=96).theta_interval
    R = max(len(im) for im in zp.images)
    assert (consts.Cprime, consts.C2, consts.Cpp) == ref_spectral_prefactors(
        consts.c_lower, consts.c_upper, lo, hi, R
    )


@ALL
def test_product_paths_match_the_former_loops(zeta):
    zp, consts = constants_for(zeta)
    rng = random.Random(1729)
    roof = tuple(Fraction(rng.randint(1, 40), rng.randint(1, 40)) for _ in range(zeta.m))
    for om in seeded_omegas(11):
        n = rng.randint(0, 14)
        assert same(
            dioph_product_bound(zp, consts.v, om, n, consts),
            ref_dioph_product_bound(zp, om, n, consts),
        )
        assert same(
            dioph_product_bound(zp, consts.v, om, n, consts, roof=roof),
            ref_dioph_product_bound(zp, om, n, consts, roof=roof),
        )
        for N in (1, 2, rng.randint(3, 500), rng.randint(500, 10**6)):
            got = birkhoff_sup_bound(zp, consts.v, om, N, consts)
            assert same(got, ref_birkhoff_sup_bound(zp, om, N, consts))
            r = Fraction(1, 2 * N)
            assert spectral_ball_bound(zp, om, r, consts).upper == (
                PI_SQUARED_UPPER / 4 * float((got / N) ** 2)
            )
        n_max = rng.randint(4, 24)
        lens = ref_level_lengths(zeta, consts.v, n_max, roof)
        ev = eigenvalue_test(zeta, consts.v, om, n_max, roof=roof)
        assert ev.terms == tuple(float(ref_dist(as_exact(om) * L) ** 2) for L in lens)
        gf = gamma_frequency(zeta, consts.v, om, Fraction(1, 7), n_max)
        plain = ref_level_lengths(zeta, consts.v, n_max, None)
        assert gf.distances == tuple(float(ref_dist(as_exact(om) * L)) for L in plain)


def test_sup_bound_is_the_product_at_depth_n_star_plus_one():
    zp, consts = constants_for(RUNNING.power(3))
    rng = random.Random(300)
    for _ in range(100):
        om = Fraction(rng.randint(-500, 500), rng.randint(1, 2000))
        N = rng.randint(1, 10**6)
        n_star = math.floor(
            math.log(float(N)) / math.log(consts.theta) - consts.C2 - 1e-9
        )
        prod = dioph_product_bound(zp, consts.v, om, max(0, n_star + 1), consts)
        assert birkhoff_sup_bound(zp, consts.v, om, N, consts) == consts.Cpp * N * prod.product


def _powered_flow(flow, p):
    zp = flow.zeta.power(p) if p > 1 else flow.zeta
    return SuspensionFlow(
        zeta=zp, roof=flow.roof, self_similar=flow.self_similar,
        theta=flow.theta**p,
        theta_interval=(flow.theta_interval[0] ** p, flow.theta_interval[1] ** p),
    )


FLOWS = {
    "run_rational": lambda: make_flow(RUNNING, [1, 2]),
    "three_rational": lambda: make_flow(THREE, [3, 1, 2]),
    "sym_selfsimilar": lambda: self_similar_roof(SYMMETRIC),
    "run_selfsimilar_powered": lambda: self_similar_roof(RUNNING),
    "run3_exact_field": lambda: self_similar_roof(RUNNING.power(3)),
    "fib4_exact_field": lambda: self_similar_roof(FIBONACCI.power(4)),
}


@pytest.mark.parametrize("key", list(FLOWS))
def test_flow_paths_match_the_former_loops(key):
    flow = FLOWS[key]()
    rw = find_return_word(flow.zeta)
    if rw.power > 1:
        flow = _powered_flow(flow, rw.power)
    consts = flow_dioph_constants(flow, rw.v, k_max=10)
    assert same(consts, ref_flow_dioph_constants(flow, rw.v, 10))
    exact = key.endswith("exact_field")
    rng = random.Random(key)
    for _ in range(25):
        om = Fraction(rng.randint(1, 300), rng.randint(1, 97))
        R = Fraction(rng.randint(1, 10**6), rng.randint(1, 7))
        got = flow_product_bound(flow, rw.v, om, R, consts)
        assert got.exact_path == exact
        assert same(got, ref_flow_product_bound(flow, om, R, consts))
    tiny = flow_product_bound(flow, rw.v, Fraction(1, 3), Fraction(1, 2), consts)
    assert tiny.n_star < 0 and same(
        tiny, ref_flow_product_bound(flow, Fraction(1, 3), Fraction(1, 2), consts)
    )


# ---------------------------------------------------------------------------
# the explicit-v path of the log-Holder certificate


@pytest.fixture(scope="module")
def flow_run():
    return self_similar_roof(RUNNING)


def test_log_holder_explicit_v_matches_the_search(flow_run):
    rw = find_return_word(flow_run.zeta)
    auto = log_holder_certificate(flow_run, 4, [1e-2, 1e-3], k_max=12)
    given = log_holder_certificate(flow_run, 4, [1e-2, 1e-3], v=rw.v, k_max=12)
    assert given == auto and pickle.dumps(given) == pickle.dumps(auto)
    assert given.zeta_power == return_word_power(flow_run.zeta, rw.v) == rw.power
    assert given.zeta_power == ref_flows_power(flow_run.zeta, rw.v)


def test_log_holder_explicit_v_respects_the_budget():
    flow = self_similar_roof(WIDE)
    t0 = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        log_holder_certificate(flow, 4, [1e-3], v="211")
    assert time.perf_counter() - t0 < 5
