"""The benchmark's four workloads.

Each workload builds its fixed objects in ``__init__`` (counted in the
set-up time), hands out seeded operations in whole rounds through
``next_round`` and runs one operation in ``op`` (the only timed code).
``check_op`` checks one result against ``reference`` computations; the
runner calls it for every operation right after its round, outside the
operation timings, and drops the result, so that what the benchmark holds
does not grow with the number of operations.  ``check_op`` keeps the inputs
of a seeded sample of the first ``MIN_OPS`` operations, and ``finish`` runs
the sampled checks after the timed phase.  Operations call the package's
public functions through module attributes, so the traced run sees them.
See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import os
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

import checks
import reference as ref
from subspectral import bernoulli, cli, diophantine, flows, riesz, spectral
from subspectral.algebraic import AlgebraicInteger
from subspectral.substitution import Substitution, find_return_word

RUNNING = ("1222", "1")  # the running example 1 -> 1222, 2 -> 1
DENOM = 100003  # prime denominator of every seeded frequency and t value
MIN_OPS = 100  # so that at least ten latencies lie beyond the 90th percentile


def _sample(seed: int, size: int) -> set[int]:
    """Indices of the operations whose inputs the sampled checks keep."""
    return set(random.Random(seed * 1_000_003 + 17).sample(range(MIN_OPS), size))


class SpectralGrid:
    """One row of ``subspectral spectral --n 12`` per fresh frequency."""

    name = "spectral_grid"
    n = 12
    brute_budget = 10**6  # longest word the check expands
    brute_sample = 8  # frequencies checked by brute force and through the CLI

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.sample = _sample(seed, self.brute_sample)
        self.kept: list[Fraction] = []
        self.seen: set[int] = set()
        self.zeta = Substitution.from_images(RUNNING)
        rw = find_return_word(self.zeta)
        self.v = rw.v
        self.power = rw.power
        self.zp = self.zeta.power(rw.power) if rw.power > 1 else self.zeta
        self.consts = spectral.dioph_constants(self.zp, rw.v, k_max=20)
        theta_n = max(1, round(float(self.consts.theta) ** self.n))
        self.r = Fraction(1, 2 * theta_n)
        self.n_max = max(10, 4 * self.n)

    def next_round(self) -> list[Fraction]:
        while True:
            k = self.rng.randrange(1, DENOM)
            if k not in self.seen:
                self.seen.add(k)
                return [Fraction(k, DENOM)]

    def op(self, om: Fraction):
        dp = spectral.dioph_product_bound(self.zp, self.v, om, self.n, self.consts)
        spectral.spectral_ball_bound(self.zp, om, self.r, self.consts)
        ld = spectral.local_dimension_bound(self.zeta, om, n_max=self.n_max)
        return dp.product, ld.norms, ld.lower_bound

    @functools.cached_property
    def row_sums(self) -> list[int]:
        return ref.max_row_sums(RUNNING, self.n_max)

    def check_op(self, index: int, om: Fraction, result) -> list[str]:
        if index in self.sample:
            self.kept.append(om)
        _, norms, lower_bound = result
        label = f"op {index}:"
        return checks.check_norm_chain(
            norms, self.row_sums, label=label
        ) + checks.check_lower_bound(lower_bound, label=label)

    def finish(self, out_dir: Path) -> list[str]:
        fails = []
        zp_images = ref.power_images(RUNNING, self.power)
        depth = ref.deepest_level(zp_images, self.brute_budget)
        words = {
            b: ref.letters(ref.expand(zp_images, str(b), depth)) for b in (1, 2)
        }
        for om in self.kept:
            dp = spectral.dioph_product_bound(self.zp, self.v, om, depth, self.consts)
            sums = {
                (b, a): ref.twisted_sum(words[b], a, om) for b in (1, 2) for a in (1, 2)
            }
            fails += checks.check_product_dominates_sums(
                dp.per_letter, sums, label=f"omega={om} depth={depth}:"
            )

        config = out_dir / "config.json"
        config.write_text(json.dumps({"alphabet": 2, "images": list(RUNNING)}))
        grid = ",".join(f"{om.numerator}/{om.denominator}" for om in self.kept)
        codes, csvs = [], []
        self.cli_bytes = 0
        for threads in (1, min(2, len(os.sched_getaffinity(0)))):
            dest = out_dir / f"cli-threads{threads}"
            argv = [
                "spectral", "--config", str(config), "--omega-grid", grid,
                "--n", str(self.n), "--threads", str(threads), "--out", str(dest),
            ]
            with contextlib.redirect_stdout(io.StringIO()):
                codes.append(cli.main(argv))
            csv_path = dest / "spectral.csv"
            csvs.append(csv_path.read_bytes() if csv_path.exists() else b"")
            self.cli_bytes += sum(p.stat().st_size for p in dest.iterdir())
        fails += checks.check_cli_runs(codes, csvs, len(self.kept))
        return fails


class RieszRevisit:
    """Twisted sums by the matrix recursion at frequencies that recur."""

    name = "riesz_revisit"
    pool_size = 64
    precision = 64
    word_budget = 10**5
    roof = (1, 1)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.zeta = Substitution.from_images(RUNNING)
        self.depth = ref.deepest_level(RUNNING, self.word_budget)
        self.pool = [
            Fraction(k, DENOM)
            for k in self.rng.sample(range(1, DENOM), self.pool_size)
        ]
        self.keys = [
            (n, a, b)
            for n in range(1, self.depth + 1)
            for a in (1, 2)
            for b in (1, 2)
        ]
        self.brute: dict[int, np.ndarray] = {}

    def next_round(self) -> list[int]:
        order = list(range(self.pool_size))
        self.rng.shuffle(order)
        return order

    def op(self, index: int):
        om = self.pool[index]
        rec = []
        sus = []
        for n, a, b in self.keys:
            rec.append(complex(riesz.phi_recursive(self.zeta, a, b, n, om, self.precision)))
            sus.append(
                complex(
                    riesz.phi_suspension(self.zeta, self.roof, a, b, n, om, self.precision)
                )
            )
        return np.array(rec), np.array(sus)

    @functools.cached_property
    def words(self) -> dict[tuple[int, int], np.ndarray]:
        return {
            (n, b): ref.letters(ref.expand(RUNNING, str(b), n))
            for n in range(1, self.depth + 1)
            for b in (1, 2)
        }

    def brute_force(self, index: int) -> np.ndarray:
        """Reference values at pool frequency ``index``, in ``keys`` order."""
        if index not in self.brute:
            om = self.pool[index]
            self.brute[index] = np.array(
                [ref.twisted_sum(self.words[(n, b)], a, om) for n, a, b in self.keys]
            )
        return self.brute[index]

    def check_op(self, index: int, pool_index: int, result) -> list[str]:
        rec, sus = result
        return checks.check_riesz_values(
            self.pool[pool_index], rec, sus, self.brute_force(pool_index),
            label=f"op {index}:",
        )

    def finish(self, out_dir: Path) -> list[str]:
        return []


class FlowCertify:
    """Product bound and twisted ergodic integral on the self-similar
    suspension of the cube of the running example."""

    name = "flow_certify"
    ladder = tuple(Fraction(40 * 2**j) for j in range(7))
    anchor_range = 1024
    walk_sample = 6

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.sample = _sample(seed, self.walk_sample)
        self.kept: list[tuple] = []
        self.zp = Substitution.from_images(RUNNING).power(3)
        self.images = ref.power_images(RUNNING, 3)
        self.flow = flows.self_similar_roof(self.zp)
        self.consts = flows.flow_dioph_constants(self.flow, "1", k_max=20)

    def next_round(self) -> list[tuple]:
        rungs = list(self.ladder)
        self.rng.shuffle(rungs)
        out = []
        for R in rungs:
            k = self.rng.randrange(DENOM // 4, 4 * DENOM)
            if k % DENOM == 0:
                k += 1
            anchor = self.rng.randrange(self.anchor_range)
            a = self.rng.randint(1, 2)
            out.append((Fraction(k, DENOM), R, anchor, a))
        return out

    def op(self, item):
        om, R, anchor, a = item
        fb = flows.flow_product_bound(self.flow, "1", om, R, self.consts)
        ei = flows.twisted_ergodic_integral(self.flow, anchor, 0, a, om, R)
        return ei.value, ei.correction_bound, float(fb.bound), ei.tiles_used

    def check_op(self, index: int, item, result) -> list[str]:
        value, correction, bound, tiles = result
        if index in self.sample:
            self.kept.append((index, item, value, tiles))
        return checks.check_flow_bound(value, correction, bound, label=f"op {index}:")

    def finish(self, out_dir: Path) -> list[str]:
        if not self.kept:
            return []
        roof = self.flow.roof
        longest = max(item[1] for _, item, _, _ in self.kept)
        text = ref.fixed_point(
            self.images,
            self.anchor_range + math.ceil(longest / min(roof)) + 2,
        )
        fails = []
        for index, (om, R, anchor, a), value, tiles in self.kept:
            ref_value, ref_tiles = ref.tile_integral_sum(roof, text[anchor:], a, om, R)
            fails += checks.check_flow_walk(
                value, tiles, complex(ref_value), ref_tiles, label=f"op {index}:"
            )
        return fails


THETA_POLY = (1, -1, -3)  # x^2 - x - 3, whose expanding root is (1 + sqrt(13)) / 2


@functools.lru_cache(maxsize=None)
def _theta(prec: int):
    return ref.real_root(THETA_POLY, 2.3, prec)


def _scaled_powers(t: Fraction, count: int) -> tuple:
    """(theta, prec, t theta^k for k < count) at a precision that keeps 128
    bits below the point of the largest power."""
    prec = 128 + math.ceil(count * math.log2(2.31))
    theta = _theta(prec)
    return theta, prec, ref.scaled_powers(t, theta, count, prec)


class ArithScan:
    """Escape windows, the decaying product and the transform scan at one
    t in [1, theta], theta the expanding root of x^2 - x - 3."""

    name = "arith_scan"
    N = 150
    window_k_max = 20
    bias = Fraction(3, 10)
    split_sample = 3

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.sample = _sample(seed, self.split_sample)
        self.kept: list[tuple[int, Fraction]] = []
        self.ai = AlgebraicInteger.from_poly(THETA_POLY, 128)
        # t = k / DENOM <= theta = (1 + sqrt(13)) / 2
        self.k_hi = (DENOM + math.isqrt(13 * DENOM * DENOM)) // 2

    def next_round(self) -> list[Fraction]:
        return [Fraction(self.rng.randint(DENOM, self.k_hi), DENOM)]

    def op(self, t: Fraction):
        w = diophantine.window_escape_check(self.ai, t, k_max=self.window_k_max)
        pr = diophantine.prop_alg_product(self.ai, t, self.N)
        sc = bernoulli.bc_log_decay_scan(self.ai, self.bias, self.N, u_grid=(t,))
        return (
            w.beta,
            [(v.k, v.max_eps) for v in w.verdicts],
            pr.values,
            [(r.value, r.modulus, r.bound_chain) for r in sc.rows],
        )

    def check_op(self, index: int, t: Fraction, result) -> list[str]:
        if index in self.sample:
            self.kept.append((index, t))
        beta, verdicts, values, rows = result
        label = f"op {index} t={t}:"
        theta, prec, powers = _scaled_powers(
            t, max(self.N + 1, self.window_k_max * beta)
        )
        abs_eps = [float(abs(e)) for _, e in ref.nearest_split(powers, prec)]
        fails = checks.check_window_maxima(verdicts, beta, abs_eps, label=label)
        fails += checks.check_product_values(values, abs_eps[: self.N], label=label)
        scan_ref = ref.bernoulli_scan_values(
            powers[: self.N + 1], theta, t, self.bias, prec
        )
        fails += checks.check_scan_rows(
            rows, [complex(v) for v in scan_ref], label=label
        )
        return fails

    def finish(self, out_dir: Path) -> list[str]:
        fails = []
        for index, t in self.kept:
            seq = diophantine.pisot_sequence(self.ai, t, self.N)
            _, _, powers = _scaled_powers(t, self.N)
            fails += checks.check_split(
                seq.K, seq.eps, powers, seq.err, label=f"op {index} t={t}:"
            )
        return fails


WORKLOADS = {w.name: w for w in (SpectralGrid, RieszRevisit, FlowCertify, ArithScan)}
