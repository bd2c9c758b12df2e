"""Tests of the benchmark itself: every correctness check accepts the
program's real output and rejects a perturbed copy of it (one entry moved
by 1e-6, a bound halved, or one row dropped), and the benchmark command
refuses to run without the package source.

Run from the root of a checkout:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from subspectral import bernoulli, diophantine, spectral  # noqa: E402
from subspectral.algebraic import AlgebraicInteger  # noqa: E402

RUNNING = workloads.RUNNING


def _run_checks(wl, items, out_dir):
    """Run the workload's operations and every check on their results, with
    every operation in the sample."""
    wl.sample = set(range(len(items)))
    fails = []
    for index, item in enumerate(items):
        fails += wl.check_op(index, item, wl.op(item))
    return fails + wl.finish(out_dir)


@pytest.fixture(scope="module")
def grid():
    return workloads.SpectralGrid(3)


@pytest.fixture(scope="module")
def flow():
    return workloads.FlowCertify(3)


@pytest.fixture(scope="module")
def theta_ai():
    return AlgebraicInteger.from_poly(workloads.THETA_POLY, 128)


# ---------------------------------------------------------------------------
# spectral_grid


def _level_sums(grid, om, depth):
    images = ref.power_images(RUNNING, grid.power)
    words = {b: ref.letters(ref.expand(images, str(b), depth)) for b in (1, 2)}
    return {(b, a): ref.twisted_sum(words[b], a, om) for b in (1, 2) for a in (1, 2)}


def test_product_bound_check(grid):
    depth = 2
    for om in (Fraction(12345, workloads.DENOM), Fraction(1, 10**9)):
        dp = spectral.dioph_product_bound(grid.zp, grid.v, om, depth, grid.consts)
        sums = _level_sums(grid, om, depth)
        assert checks.check_product_dominates_sums(dp.per_letter, sums) == []
    # the bound is loose: put each letter's bound at half of the largest
    # sum it must dominate
    halved = tuple(
        Fraction(max(abs(sums[(b, a)]) for a in (1, 2)) / 2) for b in (1, 2)
    )
    assert checks.check_product_dominates_sums(halved, sums)
    dropped = dict(list(sums.items())[1:])
    assert checks.check_product_dominates_sums(dp.per_letter, dropped)


def test_norm_chain_check():
    zeta = workloads.Substitution.from_images(RUNNING)
    bounds = ref.max_row_sums(RUNNING, 12)
    # at a tiny frequency the norms sit just below the count bound
    for om in (Fraction(1, 10**15), Fraction(777, workloads.DENOM)):
        norms = spectral.local_dimension_bound(zeta, om, n_max=12).norms
        assert checks.check_norm_chain(norms, bounds) == []
    near = list(spectral.local_dimension_bound(zeta, Fraction(1, 10**15), n_max=12).norms)
    moved = near[:]
    moved[-1] *= 1 + 1e-6
    assert checks.check_norm_chain(moved, bounds)
    assert checks.check_norm_chain(near[:-1], bounds)


def test_lower_bound_check():
    zeta = workloads.Substitution.from_images(RUNNING)
    values = [
        spectral.local_dimension_bound(zeta, om, n_max=12).lower_bound
        for om in (Fraction(2), Fraction(777, workloads.DENOM))
    ]
    assert values[0] == 0.0
    assert [checks.check_lower_bound(v) for v in values] == [[], []]
    assert checks.check_lower_bound(values[0] - 1e-6)
    assert checks.check_lower_bound(2.0 + 1e-6)


def test_cli_check(tmp_path):
    items = [Fraction(5, 17), Fraction(9, 23)]
    grid_small = workloads.SpectralGrid(3)
    grid_small.n = 3
    assert _run_checks(grid_small, items, tmp_path) == []
    csv = (tmp_path / "cli-threads1" / "spectral.csv").read_bytes()
    assert checks.check_cli_runs([0, 0], [csv, csv], 2) == []
    lines = csv.split(b"\r\n")
    dropped = b"\r\n".join(lines[:1] + lines[2:])
    assert checks.check_cli_runs([0, 0], [csv, dropped], 2)
    assert checks.check_cli_runs([0, 3], [csv, csv], 2)


# ---------------------------------------------------------------------------
# riesz_revisit


class SmallRiesz(workloads.RieszRevisit):
    pool_size = 3
    word_budget = 200


def test_riesz_checks():
    wl = SmallRiesz(4)
    items = wl.next_round()
    assert _run_checks(wl, items, Path(".")) == []
    om = wl.pool[items[0]]
    rec, sus = wl.op(items[0])
    brute = wl.brute_force(items[0])
    assert checks.check_riesz_values(om, rec, sus, brute) == []
    moved = rec.copy()
    moved[3] += 1e-6
    assert checks.check_riesz_values(om, moved, sus, brute)
    moved = sus.copy()
    moved[5] += 1e-6j
    assert checks.check_riesz_values(om, rec, moved, brute)
    assert checks.check_riesz_values(om, rec[:-1], sus[:-1], brute)


# ---------------------------------------------------------------------------
# flow_certify


def test_flow_checks(flow):
    items = [(Fraction(31337, workloads.DENOM), R, 37, a) for R in flow.ladder[:3] for a in (1, 2)]
    assert _run_checks(flow, items, Path(".")) == []
    om, R, anchor, a = items[-1]
    value, corr, bound, tiles = flow.op(items[-1])
    assert checks.check_flow_bound(value, corr, bound) == []
    # the product bound is far from tight here: put it at half of what it
    # must dominate
    assert checks.check_flow_bound(value, corr, 0.5 * (abs(value) + corr))

    text = ref.fixed_point(flow.images, anchor + int(R / min(flow.flow.roof)) + 2)
    ref_value, ref_tiles = ref.tile_integral_sum(flow.flow.roof, text[anchor:], a, om, R)
    ref_value = complex(ref_value)
    assert checks.check_flow_walk(value, tiles, ref_value, ref_tiles) == []
    assert checks.check_flow_walk(value + 1e-6, tiles, ref_value, ref_tiles)
    assert checks.check_flow_walk(value, tiles - 1, ref_value, ref_tiles)


# ---------------------------------------------------------------------------
# arith_scan


def _powers(t, count):
    prec = 128 + 2 * count
    theta = ref.real_root(workloads.THETA_POLY, 2.3, prec)
    powers = ref.scaled_powers(t, theta, count, prec)
    abs_eps = [float(abs(e)) for _, e in ref.nearest_split(powers, prec)]
    return theta, prec, powers, abs_eps


def test_split_check(theta_ai):
    t = Fraction(150001, 100003)
    seq = diophantine.pisot_sequence(theta_ai, t, 40)
    _, _, powers, _ = _powers(t, 40)
    assert checks.check_split(seq.K, seq.eps, powers, seq.err) == []
    eps = list(seq.eps)
    eps[7] += Fraction(1, 10**6)
    assert checks.check_split(seq.K, eps, powers, seq.err)
    assert checks.check_split(seq.K[:-1], seq.eps[:-1], powers, seq.err)


def test_window_and_product_checks(theta_ai):
    t = Fraction(150001, 100003)
    w = diophantine.window_escape_check(theta_ai, t, k_max=4)
    pr = diophantine.prop_alg_product(theta_ai, t, 40)
    _, _, _, abs_eps = _powers(t, max(40, 4 * w.beta))
    verdicts = [(v.k, v.max_eps) for v in w.verdicts]
    assert checks.check_window_maxima(verdicts, w.beta, abs_eps) == []
    k, m = verdicts[0]
    assert checks.check_window_maxima([(k, m + 1e-6)] + verdicts[1:], w.beta, abs_eps)

    values = list(pr.values)
    assert checks.check_product_values(values, abs_eps[:40]) == []
    moved = values[:]
    moved[20] += 1e-6
    assert checks.check_product_values(moved, abs_eps[:40])
    assert checks.check_product_values(values[:-1], abs_eps[:40])


def test_arith_workload_checks():
    wl = workloads.ArithScan(3)
    assert _run_checks(wl, wl.next_round(), Path(".")) == []


def test_scan_check(theta_ai):
    t = Fraction(150001, 100003)
    N = 30
    sc = bernoulli.bc_log_decay_scan(theta_ai, Fraction(3, 10), N, u_grid=(t,))
    theta, prec, powers, _ = _powers(t, N + 1)
    ref_values = [
        complex(v)
        for v in ref.bernoulli_scan_values(powers, theta, t, Fraction(3, 10), prec)
    ]
    rows = [(r.value, r.modulus, r.bound_chain) for r in sc.rows]
    assert checks.check_scan_rows(rows, ref_values) == []
    value, modulus, chain = rows[10]
    moved = rows[:10] + [(value + 1e-6, modulus, chain)] + rows[11:]
    assert checks.check_scan_rows(moved, ref_values)
    moved = rows[:10] + [(value, modulus + 1e-6, chain)] + rows[11:]
    assert checks.check_scan_rows(moved, ref_values)
    # the chain bound is loose here: put it at half of the modulus
    halved = rows[:10] + [(value, modulus, 0.5 * modulus)] + rows[11:]
    assert checks.check_scan_rows(halved, ref_values)
    assert checks.check_scan_rows(rows[:-1], ref_values)


# ---------------------------------------------------------------------------
# the benchmark command


def test_command_refuses_a_tree_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name = spec["workloads"][0]["name"]
    proc = subprocess.run(
        spec["command"] + ["--workload", name, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
