"""No library call reads or sets mpmath's process-wide working precision.

mpmath's global context ``mp`` holds one working precision for the whole
process.  The package names the precision of every numeric routine instead:
scalar arithmetic goes through ``libmp`` with an explicit precision, and
matrix and root-finding code runs in a private context per call.  So
concurrent calls give the same bytes as sequential ones, and no call leaves
``mp.mp.prec`` changed.  A source tripwire keeps the global setters out of
the package.
"""

from __future__ import annotations

import importlib
import pickle
import pkgutil
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import mpmath as mp

import subspectral
from subspectral import algebraic, bernoulli, diophantine, flows, riesz, spectral, substitution
from subspectral.algebraic import AlgebraicInteger, certify_roots
from subspectral.substitution import Substitution, find_return_word

SRC = Path(__file__).resolve().parents[1] / "src" / "subspectral"
RUNNING = Substitution.from_images(("1222", "1"))
TRIBONACCI = Substitution.from_images(("12", "13", "1"))
POLYS = ((1, -1, -3), (1, -3, -5), (1, -1, -2, -3))
# a call or an assignment that sets the global precision
SETTER = re.compile(
    r"\bmp\.(workprec|workdps|extraprec|extradps)\("
    r"|\bmp\.(mp\.)?(prec|dps)\s*[-+*/]?=(?!=)"
)


MODULES = [
    importlib.import_module(f"subspectral.{info.name}")
    for info in pkgutil.iter_modules(subspectral.__path__)
]


# t -> one pisot sequence that every thread reads
SHARED_SEQUENCES: dict = {}


def cold():
    """Empty every memo of every module of the package, and the shared
    sequences."""
    for module in MODULES:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    SHARED_SEQUENCES.clear()


def _roots(p):
    ai = AlgebraicInteger.from_poly(p, 128)
    return [ai, certify_roots(p, 200)] + [d.modulus_interval() for d in ai.roots]


def _constants(p):
    ai = AlgebraicInteger.from_poly(p, 128)
    return [algebraic.prop_alg_constants(ai)] + [
        algebraic.garsia_lower_bound(ai, j, 3, ai.degree - 1) for j in range(ai.degree)
    ]


def _product(t):
    ai = AlgebraicInteger.from_poly(POLYS[0], 128)
    return [diophantine.prop_alg_product(ai, t, 60)]


def _erdos_kahane(p):
    ai = AlgebraicInteger.from_poly(p, 128)
    thetas = tuple(d.center for d in ai.roots)
    consts = diophantine.ek_constants(thetas)
    K = diophantine.pisot_sequence(ai, 1, 12).K
    m = ai.degree
    return [consts] + [
        diophantine.ek_step_predict(list(K[i : i + m]), consts) for i in range(6)
    ] + [diophantine.ek_frequency(thetas, (1,) + (0,) * (m - 1), Fraction(1, 3), 20,
                                  Fraction(1, 10))]


def _bernoulli_scan(u):
    # from a cold memo of power enclosures, so that concurrent calls grow it
    bernoulli._power_enclosures.cache_clear()
    ai = AlgebraicInteger.from_poly(POLYS[0], 128)
    return [bernoulli.bc_log_decay_scan(ai, Fraction(3, 10), 60, u_grid=(u, u / 2))]


def _erdos(n):
    bernoulli._power_enclosures.cache_clear()
    ai = AlgebraicInteger.from_poly((1, -1, -1), 128)
    return [bernoulli.erdos_nondecay(ai, n)]


def _pisot_views(t):
    # ``cold`` empties the store, so under the thread pool the first reads
    # of the lazy views ``eps`` and ``eps_num`` of one shared sequence race
    if t not in SHARED_SEQUENCES:
        ai = AlgebraicInteger.from_poly(POLYS[2], 128)
        SHARED_SEQUENCES.setdefault(t, diophantine.pisot_sequence(ai, t, 90))
    seq = SHARED_SEQUENCES[t]
    return [seq, seq.eps, seq.eps_num]


def _perron(M):
    return [substitution.perron_data(M, bits) for bits in (53, 96, 200)]


def _substitution(zeta):
    rw = find_return_word(zeta)
    zp = zeta.power(rw.power) if rw.power > 1 else zeta
    flow = flows.make_flow(zeta, range(2, zeta.m + 2))
    freqs, exact = flows._frequency_measures(flow)
    assert not exact
    return [spectral.dioph_constants(zp, rw.v, k_max=10), freqs] + [
        riesz.riesz_density(zeta, n, Fraction(k, 101), None, bits)
        for n, k, bits in ((0, 3, 64), (3, 7, 106), (5, 29, 200))
    ]


ITEMS = (
    [(_roots, p) for p in POLYS]
    + [(_constants, p) for p in POLYS]
    + [(_product, Fraction(k, 7)) for k in (8, 10, 13, 16, 3)]
    + [(_erdos_kahane, p) for p in POLYS[:2]]
    + [(_bernoulli_scan, Fraction(k, 11)) for k in (11, 13, 17)]
    + [(_erdos, n) for n in (20, 80, 140)]
    + [(_pisot_views, Fraction(k, 5)) for k in (6, 9)]
    + [(_perron, M) for M in (((1, 1), (3, 0)), ((1, 1, 1), (1, 0, 0), (0, 1, 0)))]
    + [(_substitution, zeta) for zeta in (RUNNING, TRIBONACCI)]
)


def run(order):
    return [(i, [pickle.dumps(x) for x in ITEMS[i][0](ITEMS[i][1])]) for i in order]


def test_threads_give_the_sequential_bytes(monkeypatch):
    # a spy on the precision setters of mpmath.mp itself; private contexts
    # share the class properties, so their settings are passed through
    setters = []

    def spy(prop):
        def setter(self, value):
            if self is mp.mp:
                setters.append(threading.current_thread())
            prop.fset(self, value)

        return property(prop.fget, setter)

    contexts = type(mp.mp)
    monkeypatch.setattr(contexts, "prec", spy(contexts.prec))
    monkeypatch.setattr(contexts, "dps", spy(contexts.dps))
    prec = mp.mp.prec
    cold()
    single = run(range(len(ITEMS)))
    cold()
    n = len(ITEMS)
    orders = [[(i + 3 * k) % n for i in range(n)] for k in range(6)]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=6) as pool:
            futures = [pool.submit(run, order) for order in orders]
            results = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(old)
    for res in results:
        assert sorted(res) == single
    assert mp.mp.prec == prec
    assert setters == []


def test_no_module_sets_the_global_precision():
    hits = [
        f"{path.name}:{n}: {line.strip()}"
        for path in sorted(SRC.glob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), start=1)
        if SETTER.search(line)
    ]
    assert hits == []


def test_tripwire_pattern_catches_the_setters():
    for line in ("with mp.workprec(80):", "with mp.extradps(5):", "mp.prec = 80",
                 "mp.mp.dps = 30", "mp.mp.prec += 10"):
        assert SETTER.search(line), line
    for line in ("ctx.prec = 80", "if mp.mp.prec == prec:", "with ctx.workprec(9):"):
        assert not SETTER.search(line), line
