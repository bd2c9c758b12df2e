"""One fixed-point word per substitution, and one block source for the
growth cocycle and the occupation times.

``substitution.fixed_point_prefix`` reads a memoised, grow-only prefix of
the canonical fixed point u = zeta^k(u); ``flows._supertile_blocks`` reads
its top level from zeta(first); ``flows._orbit_blocks`` serves both anchor
kinds of ``cocycle_phi2`` and ``occupation_times``.  The code they replaced
is kept here as reference functions: the expansion loop of
``fixed_point_prefix`` that restarted from one letter on every call, the
``_supertile_blocks`` that read its queue from the fixed point (doubling
it when the top level ran out), and the tile-walk branches of
``cocycle_phi2`` and ``occupation_times`` for positive anchors.  Words are
exact tuples and the sums exact Fractions, so the comparisons are ``==``,
and the results are also compared as pickles.
"""

from __future__ import annotations

import math
import pickle
import random
import sys
import threading
from fractions import Fraction

import pytest

from subspectral import flows, substitution
from subspectral.errors import BudgetExceeded, NotFound
from subspectral.flows import (
    _orbit_letters,
    _tile_clock,
    _whole_tiles,
    cocycle_phi2,
    level_lengths,
    make_flow,
    occupation_times,
    self_similar_roof,
)
from subspectral.substitution import (
    Substitution,
    fixed_point_letter,
    fixed_point_prefix,
)

CASES = {
    "running": Substitution.from_images(["1222", "1"]),
    "running3": Substitution.from_images(["1222", "1"]).power(3),
    "fibonacci": Substitution.from_images(["12", "1"]),
    "symmetric": Substitution.from_images(["1112", "1222"]),
    "thue_morse": Substitution.from_images(["12", "21"]),
    "tribonacci": Substitution.from_images(["12", "13", "1"]),
    "three": Substitution.from_images(["1123", "213", "32"]),
    "k2": Substitution.from_images(["21", "1"]),  # fixed point of zeta^2
}
# integer second eigenvalue above 1, as the cocycle needs
COCYCLE_CASES = {
    "symmetric": CASES["symmetric"],
    "symmetric2": CASES["symmetric"].power(2),
    "gap53": Substitution.from_images(["11112", "12222"]),
}
NON_EXPANDING = Substitution.from_images(["1", "21"])


# ---------------------------------------------------------------------------
# reference functions: the replaced code


def ref_fixed_point_prefix(zeta, length):
    """The former ``fixed_point_prefix``: zeta^k from ``power``, expanded
    from the single letter a on every call."""
    a, k = fixed_point_letter(zeta)
    zk = zeta.power(k)
    w = (a,)
    guard = 0
    while len(w) < length:
        nxt = zk._expand(w)
        if len(nxt) == len(w):
            raise NotFound("substitution does not expand; no infinite fixed point")
        w = nxt[: max(length, 1)]
        guard += 1
        if guard > 10 * length + 64:
            raise NotFound("fixed-point expansion stalled")
    return w[:length]


def ref_supertile_blocks(flow, t):
    """The former ``_supertile_blocks``, whose top queue was read from the
    fixed point and doubled when the top level ran out."""
    zeta = flow.zeta
    if fixed_point_letter(zeta)[1] != 1:
        raise NotFound("the canonical fixed point needs a power of the substitution")
    first = ref_fixed_point_prefix(zeta, 1)[0]
    K = 0
    while level_lengths(flow, K + 1)[first - 1] <= t:
        K += 1
    L = max(len(im) for im in zeta.images)
    blocks = []
    remaining = t
    level = K
    queue = list(ref_fixed_point_prefix(zeta, L + 2))
    qpos = 0
    straddle = None
    while level >= 0:
        lens = level_lengths(flow, level)
        while qpos < len(queue) and lens[queue[qpos] - 1] <= remaining:
            c = queue[qpos]
            blocks.append((level, c))
            remaining -= lens[c - 1]
            qpos += 1
        if qpos >= len(queue):
            if level != K:
                raise BudgetExceeded("supertile decomposition failed to advance")
            queue = list(ref_fixed_point_prefix(zeta, 2 * len(queue)))
            continue
        c = queue[qpos]
        if level == 0:
            if remaining > 0:
                straddle = c
            break
        queue = list(zeta.images[c - 1])
        qpos = 0
        level -= 1
    return blocks, straddle, remaining


def ref_cocycle_walk(flow, x_anchor, tt, budget):
    """The former positive-anchor branch of ``cocycle_phi2``."""
    letters = _orbit_letters(flow, x_anchor, tt + flow.max_roof, budget)
    n, reached = _whole_tiles(*_tile_clock(flow, letters), tt)
    blocks = [(0, c) for c in letters[:n]]
    remaining = tt - reached
    straddle = letters[n] if remaining and n < len(letters) else None
    return blocks, straddle, remaining


def ref_orbit_blocks(flow, x_anchor, tt, budget):
    """The former block choice of ``cocycle_phi2``."""
    if x_anchor == 0:
        return ref_supertile_blocks(flow, tt)
    return ref_cocycle_walk(flow, x_anchor, tt, budget)


def ref_occupation_times(flow, t, x_anchor=0, budget=500_000):
    """The former ``occupation_times``: supertiles at anchor 0, letter
    counts of a tile walk elsewhere."""
    tt = Fraction(t)
    m = flow.zeta.m
    out = [Fraction(0)] * m
    if tt == 0:
        return tuple(out)
    if x_anchor == 0:
        blocks, straddle, remaining = ref_supertile_blocks(flow, tt)
        for level, c in blocks:
            Pk = substitution._count_power(flow.zeta, level)
            for aa in range(m):
                out[aa] += Pk[aa][c - 1] * flow.roof[aa]
        if straddle is not None and remaining > 0:
            out[straddle - 1] += remaining
        return tuple(out)
    letters = _orbit_letters(flow, x_anchor, tt + flow.max_roof, budget)
    n, reached = _whole_tiles(*_tile_clock(flow, letters), tt)
    whole = letters[:n]
    out = [whole.count(c) * flow.roof[c - 1] for c in range(1, m + 1)]
    if reached < tt and n < len(letters):
        out[letters[n] - 1] += tt - reached
    return tuple(out)


def same(a, b):
    assert a == b
    assert pickle.dumps(a) == pickle.dumps(b)


def same_entries(a, b):
    """Equal occupation times, entry by entry also as pickles.  The whole
    tuples may pickle apart in one case: a positive anchor with t inside
    the anchor tile on three or more letters, where the untouched zero
    entries are now one shared ``Fraction(0)`` object (as at anchor 0),
    and pickle writes a memo reference for the repeats."""
    assert a == b
    assert [pickle.dumps(x) for x in a] == [pickle.dumps(x) for x in b]


def cold_memo():
    substitution._fixed_point.cache_clear()


# ---------------------------------------------------------------------------
# the fixed-point prefix


def long_short_long(rng):
    """Lengths in a seeded order that goes longer, then shorter, then
    longer again, with 0 and 1 among them."""
    short = [0, 1, 2, 3] + rng.sample(range(4, 200), 6)
    mid = rng.sample(range(200, 1500), 4)
    long = rng.sample(range(1500, 6000), 4)
    rng.shuffle(short)
    rng.shuffle(long)
    return mid[:2] + short + mid[2:] + long + short[:3] + [max(long) + 1]


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_prefix_matches_reference_in_any_order(name, seed):
    zeta = CASES[name]
    rng = random.Random(1000 * seed + len(name))
    order = long_short_long(rng)
    want = {n: ref_fixed_point_prefix(zeta, n) for n in set(order)}
    cold_memo()
    for n in order:
        same(fixed_point_prefix(zeta, n), want[n])


@pytest.mark.parametrize("name", sorted(CASES))
def test_memo_keeps_the_longest_prefix(name):
    zeta = CASES[name]
    cold_memo()
    for n in (700, 3, 2500, 0, 900):
        fixed_point_prefix(zeta, n)
    _, word = substitution._fixed_point(zeta)
    same(word, ref_fixed_point_prefix(zeta, 2500))


def test_length_zero_and_one():
    for zeta in list(CASES.values()) + [NON_EXPANDING]:
        cold_memo()
        same(fixed_point_prefix(zeta, 0), ())
        same(fixed_point_prefix(zeta, -3), ref_fixed_point_prefix(zeta, -3))
        same(fixed_point_prefix(zeta, 1), ref_fixed_point_prefix(zeta, 1))


def test_non_expanding_refusal():
    cold_memo()
    same(fixed_point_prefix(NON_EXPANDING, 1), (1,))
    for n in (2, 5, 1000):
        with pytest.raises(NotFound, match="does not expand"):
            ref_fixed_point_prefix(NON_EXPANDING, n)
        with pytest.raises(NotFound, match="does not expand"):
            fixed_point_prefix(NON_EXPANDING, n)


def test_k2_prefix_is_a_fixed_point_of_zeta_squared():
    zeta = CASES["k2"]
    a, k = fixed_point_letter(zeta)
    assert k == 2
    cold_memo()
    u = fixed_point_prefix(zeta, 500)
    assert u[0] == a
    assert zeta.apply(zeta.apply(u))[:500] == u
    assert zeta.apply(u)[:500] != u


def test_memo_does_not_call_power(monkeypatch):
    def refuse(self, k):
        raise AssertionError("power called")

    cold_memo()
    monkeypatch.setattr(Substitution, "power", refuse)
    for zeta in CASES.values():
        fixed_point_prefix(zeta, 300)


def test_concurrent_readers_get_identical_words():
    lengths = list(range(0, 4000, 37)) + [4001, 1, 2]
    expected = {
        name: {n: ref_fixed_point_prefix(zeta, n) for n in lengths}
        for name, zeta in CASES.items()
    }
    cold_memo()
    failures = []

    def worker(seed):
        rng = random.Random(seed)
        order = [(name, n) for name in CASES for n in lengths]
        rng.shuffle(order)
        for name, n in order:
            if fixed_point_prefix(CASES[name], n) != expected[name][n]:
                failures.append((name, n))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads)
    assert failures == []
    for name, zeta in CASES.items():
        _, word = substitution._fixed_point(zeta)
        assert word == expected[name][4001]


def test_a_late_shorter_store_keeps_the_longer_word(monkeypatch):
    # a reader that grew 2000 letters reaches the store after another stored
    # 4000; the memo must keep the longer word
    zeta = CASES["three"]
    cold_memo()
    stored_long = threading.Event()
    slow = []

    class GatedLock:
        lock = threading.Lock()

        def __enter__(self):
            if threading.current_thread() in slow:
                assert stored_long.wait(timeout=60)
            self.lock.acquire()

        def __exit__(self, *exc):
            self.lock.release()

    monkeypatch.setattr(substitution, "_FIXED_POINT_LOCK", GatedLock())
    short = threading.Thread(target=fixed_point_prefix, args=(zeta, 2000))
    slow.append(short)
    short.start()
    fixed_point_prefix(zeta, 4000)
    stored_long.set()
    short.join(timeout=60)
    assert not short.is_alive()
    _, word = substitution._fixed_point(zeta)
    same(word, ref_fixed_point_prefix(zeta, 4000))


@pytest.mark.parametrize("name", sorted(CASES))
def test_memo_stores_at_most_the_cap(name, monkeypatch):
    # a request past the cap is returned whole, but only its first
    # _FIXED_POINT_LETTERS letters are stored
    zeta = CASES[name]
    monkeypatch.setattr(substitution, "_FIXED_POINT_LETTERS", 1000)
    want = ref_fixed_point_prefix(zeta, 5000)
    cold_memo()
    for n in (5000, 700, 5000, 1200, 3):
        same(fixed_point_prefix(zeta, n), want[:n])
        _, word = substitution._fixed_point(zeta)
        same(word, want[:1000])


def test_memo_cap_in_letters():
    zeta = CASES["thue_morse"]
    cap = substitution._FIXED_POINT_LETTERS
    cold_memo()
    first = fixed_point_prefix(zeta, cap + 5)
    assert len(first) == cap + 5
    assert len(substitution._fixed_point(zeta)[1]) == cap
    assert fixed_point_prefix(zeta, cap + 5) == first
    assert len(substitution._fixed_point(zeta)[1]) == cap


# ---------------------------------------------------------------------------
# the supertile decomposition and the one block source


def flows_for(zeta):
    out = [make_flow(zeta, [1] * zeta.m), make_flow(zeta, range(2, zeta.m + 2))]
    if fixed_point_letter(zeta)[1] == 1:
        out.append(self_similar_roof(zeta, precision_bits=64))
    return out


def times_for(flow, rng):
    """Random t and the level boundaries |zeta^K(first)| with their
    neighbours, where the greedy top level reaches the end of zeta(first)."""
    first = fixed_point_letter(flow.zeta)[0]
    out = [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 997)) for _ in range(12)]
    eps = Fraction(1, 10**9)
    for K in range(1, 9):
        edge = level_lengths(flow, K)[first - 1]
        out += [edge, edge - eps, edge + eps, edge - flow.min_roof]
    return [t for t in out if t > 0]


SUPERTILE_CASES = [n for n in sorted(CASES) if n != "k2"]


@pytest.mark.parametrize("name", SUPERTILE_CASES)
def test_supertile_blocks_match_reference(name):
    zeta = CASES[name]
    rng = random.Random(len(name) * 7919)
    for flow in flows_for(zeta):
        for t in times_for(flow, rng):
            same(flows._supertile_blocks(flow, t), ref_supertile_blocks(flow, t))


def test_supertile_blocks_need_a_fixed_point_of_zeta():
    flow = make_flow(CASES["k2"], [1, 1])
    with pytest.raises(NotFound):
        flows._supertile_blocks(flow, Fraction(10))


@pytest.mark.parametrize("name", sorted(CASES))
def test_occupation_times_match_reference(name):
    zeta = CASES[name]
    rng = random.Random(len(name) * 104729)
    anchors = [0, 1, 2, 5, 97, 333] if name != "k2" else [1, 2, 5, 97, 333]
    for flow in flows_for(zeta):
        ts = [Fraction(0), Fraction(1, 3)] + times_for(flow, rng)[::3]
        for x in anchors:
            for t in ts:
                if x and t > 3000:
                    continue
                same_entries(
                    occupation_times(flow, t, x), ref_occupation_times(flow, t, x)
                )


@pytest.mark.parametrize("name", sorted(CASES))
def test_walk_blocks_match_reference(name):
    zeta = CASES[name]
    rng = random.Random(len(name))
    for flow in flows_for(zeta):
        for x in (1, 4, 97, 500):
            for t in times_for(flow, rng)[::2]:
                if t > 3000:
                    continue
                same(
                    flows._orbit_blocks(flow, x, t, 500_000),
                    ref_cocycle_walk(flow, x, t, 500_000),
                )


def test_walk_budget_still_refuses():
    flow = make_flow(CASES["symmetric"], [1, 1])
    with pytest.raises(BudgetExceeded):
        occupation_times(flow, 10**4, x_anchor=3, budget=100)
    with pytest.raises(BudgetExceeded):
        cocycle_phi2(flow, 3, 10**4, budget=100)


@pytest.mark.parametrize("name", sorted(COCYCLE_CASES))
def test_cocycle_matches_reference(name, monkeypatch):
    zeta = COCYCLE_CASES[name]
    rng = random.Random(len(name) * 31)
    cases = []
    for flow in flows_for(zeta):
        for x in (0, 1, 3, 97):
            for t in times_for(flow, rng)[::2]:
                if x and t > 3000:
                    continue
                cases.append((flow, x, t))
    got = [cocycle_phi2(flow, x, t, k_levels=12) for flow, x, t in cases]
    monkeypatch.setattr(flows, "_orbit_blocks", ref_orbit_blocks)
    want = [cocycle_phi2(flow, x, t, k_levels=12) for flow, x, t in cases]
    for g, w in zip(got, want):
        same(g, w)
    assert any(not math.isclose(g.value, 0.0) for g in got)
