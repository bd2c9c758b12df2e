"""Correctness checks of the benchmark.

Each check compares program output with values from ``reference`` (or tests
a property the method must have) and returns a list of failure messages; an
empty list means the check passed.  The checks take plain numbers so that
the benchmark's own tests can hand them perturbed copies of real output.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from typing import Sequence

REL_SLACK = 1e-12  # rounding slack on bounds the program states as floats
RIESZ_TOL = 1e-9  # recursive and suspension values against their references


def _first(fails: list[str]) -> list[str]:
    """The first five messages and a count of the rest."""
    if len(fails) > 5:
        return fails[:5] + [f"... {len(fails) - 5} more"]
    return fails


# ---------------------------------------------------------------------------
# spectral_grid


def check_product_dominates_sums(
    per_letter: Sequence[Fraction],
    sums: dict[tuple[int, int], complex],
    label: str = "",
) -> list[str]:
    """``per_letter[b-1]`` bounds every twisted sum over the n-fold image of
    b; ``sums[(b, a)]`` is the brute-force sum counting letter a."""
    fails = []
    for (b, a), s in sums.items():
        bound = float(per_letter[b - 1])
        if not abs(s) <= bound * (1 + REL_SLACK):
            fails.append(
                f"{label} |sum(b={b}, a={a})| = {abs(s):.6g} exceeds the "
                f"product bound {bound:.6g}"
            )
    if len(per_letter) * len(per_letter) != len(sums):
        fails.append(f"{label} expected {len(per_letter) ** 2} sums, got {len(sums)}")
    return fails


def check_norm_chain(
    norms: Sequence[float], row_sum_bounds: Sequence[int], label: str = ""
) -> list[str]:
    """Logged norm at depth n is at most the max row sum of the n-th exact
    count-matrix power; one norm is logged per depth."""
    depth = len(row_sum_bounds)
    if len(norms) != depth:
        return [f"{label} {len(norms)} logged norms, expected {depth}"]
    return _first(
        [
            f"{label} norm {x!r} at depth {n} exceeds the count bound {bound}"
            for n, (x, bound) in enumerate(zip(norms, row_sum_bounds), start=1)
            if not x <= bound * (1 + REL_SLACK)
        ]
    )


def check_lower_bound(value: float, label: str = "") -> list[str]:
    if 0.0 <= value <= 2.0:
        return []
    return [f"{label} local-dimension lower bound {value!r} outside [0, 2]"]


def check_cli_runs(
    exit_codes: Sequence[int], csv_bytes: Sequence[bytes], grid_size: int
) -> list[str]:
    """Every call exits 0 and writes the same CSV bytes: a header plus one
    CRLF-terminated row per frequency."""
    fails = [f"CLI call {i} exited {c}" for i, c in enumerate(exit_codes) if c != 0]
    for i, data in enumerate(csv_bytes):
        lines = data.count(b"\r\n")
        if lines != grid_size + 1:
            fails.append(
                f"CLI call {i}: {lines} CSV lines, expected {grid_size + 1}"
            )
    if any(data != csv_bytes[0] for data in csv_bytes[1:]):
        fails.append("CSV bytes differ across thread counts")
    return fails


# ---------------------------------------------------------------------------
# riesz_revisit


def check_riesz_values(
    omega: Fraction,
    recursive: Sequence[complex],
    suspension: Sequence[complex],
    brute: Sequence[complex],
    label: str = "",
) -> list[str]:
    """Recursive values equal brute-force sums; suspension values with roof
    (1, 1) equal e^(-2 pi i omega) times the recursive values."""
    fails = []
    if not len(recursive) == len(suspension) == len(brute):
        return [
            f"{label} value counts differ: recursive {len(recursive)}, "
            f"suspension {len(suspension)}, reference {len(brute)}"
        ]
    shift = cmath.exp(-2j * math.pi * float(omega % 1))
    for k, (r, s, ref) in enumerate(zip(recursive, suspension, brute)):
        if not abs(r - ref) <= RIESZ_TOL:
            fails.append(f"{label} value {k}: recursive {r} vs brute force {ref}")
        if not abs(s - shift * r) <= RIESZ_TOL:
            fails.append(
                f"{label} value {k}: suspension {s} vs e^(-2 pi i omega) * {r}"
            )
    return fails


# ---------------------------------------------------------------------------
# flow_certify


def check_flow_bound(
    value: complex, correction: float, bound: float, label: str = ""
) -> list[str]:
    """|value| + correction_bound <= bound."""
    if abs(value) + correction <= bound * (1 + REL_SLACK):
        return []
    return [
        f"{label} |value| + correction = {abs(value) + correction:.6g} exceeds "
        f"the product bound {bound:.6g}"
    ]


def check_flow_walk(
    value: complex, tiles: int, ref_value: complex, ref_tiles: int, label: str = ""
) -> list[str]:
    """The program's value is the sum of the tile integrals; float phases
    allow an error of 1e-13 per tile walked."""
    fails = []
    if tiles != ref_tiles:
        fails.append(f"{label} walked {tiles} tiles, reference {ref_tiles}")
    tol = 1e-13 * (ref_tiles + 1)
    if not abs(value - ref_value) <= tol:
        fails.append(
            f"{label} value {value} differs from the tile sum {ref_value} "
            f"by {abs(value - ref_value):.3g} > {tol:.3g}"
        )
    return fails


# ---------------------------------------------------------------------------
# arith_scan


def check_split(
    K: Sequence[int],
    eps: Sequence[Fraction],
    ref_values: Sequence,
    err: Fraction,
    label: str = "",
) -> list[str]:
    """K[k] + eps[k] equals t theta^k to within err."""
    if not len(K) == len(eps) == len(ref_values):
        return [
            f"{label} {len(K)} integer parts and {len(eps)} remainders for "
            f"{len(ref_values)} powers"
        ]
    bound = float(err) * (1 + 1e-9)
    fails = []
    for k, (kk, e, x) in enumerate(zip(K, eps, ref_values)):
        diff = abs(float(x - kk) - float(e))
        if not diff <= bound:
            fails.append(f"{label} k={k}: K + eps misses t theta^k by {diff:.3g}")
    return _first(fails)


def check_window_maxima(
    verdicts: Sequence[tuple[int, float]],
    beta: int,
    ref_abs_eps: Sequence[float],
    label: str = "",
) -> list[str]:
    """Each (k, max_eps) verdict reports the largest |remainder| over the
    window k <= i < k * beta."""
    fails = []
    for k, max_eps in verdicts:
        window = ref_abs_eps[k : k * beta]
        if len(window) != k * beta - k:
            fails.append(f"{label} window {k} reaches past the reference powers")
            continue
        if not abs(max_eps - max(window)) <= 1e-12:
            fails.append(
                f"{label} window {k}: max |eps| {max_eps!r} vs {max(window)!r}"
            )
    return fails


def check_product_values(
    values: Sequence[float], ref_abs_eps: Sequence[float], label: str = ""
) -> list[str]:
    """values[n-1] = exp(-sum_{k<n} ||t theta^k||^2): nonincreasing, in
    (0, 1], and equal to the value from the reference distances."""
    if len(values) != len(ref_abs_eps):
        return [f"{label} {len(values)} product values, expected {len(ref_abs_eps)}"]
    fails = []
    partial = 0.0
    prev = 1.0
    for n, (v, d) in enumerate(zip(values, ref_abs_eps), start=1):
        partial += d * d
        ref = math.exp(-partial)
        if not 0.0 < v <= 1.0:
            fails.append(f"{label} depth {n}: value {v!r} outside (0, 1]")
        if v > prev:
            fails.append(f"{label} depth {n}: value {v!r} increases")
        if not abs(v - ref) <= 1e-9 * ref:
            fails.append(f"{label} depth {n}: value {v!r} vs reference {ref!r}")
        prev = v
    return _first(fails)


def check_scan_rows(
    rows: Sequence[tuple[complex, float, float]],
    ref_values: Sequence[complex],
    label: str = "",
) -> list[str]:
    """Rows (value, modulus, bound_chain) for N = 0..N_max against the
    converged reference transform.

    modulus <= bound_chain + 1e-10 and modulus <= 1; the modulus matches the
    reference to 1e-12; the complex value to a relative 2e-7, because the
    program stops the convergent tail once its factors are within 1e-8 of 1
    (``tail_digits`` = 8), which leaves a first-order phase error."""
    if len(rows) != len(ref_values):
        return [f"{label} {len(rows)} scan rows, expected {len(ref_values)}"]
    fails = []
    for N, ((value, modulus, chain), ref) in enumerate(zip(rows, ref_values)):
        if not modulus <= chain + 1e-10:
            fails.append(f"{label} N={N}: modulus {modulus!r} > chain bound {chain!r}")
        if not modulus <= 1.0:
            fails.append(f"{label} N={N}: modulus {modulus!r} > 1")
        if not abs(modulus - abs(ref)) <= 1e-12:
            fails.append(f"{label} N={N}: modulus {modulus!r} vs |reference| {abs(ref)!r}")
        if not abs(value - ref) <= 2e-7 * abs(ref) + 1e-12:
            fails.append(f"{label} N={N}: value {value} vs reference {ref}")
    return _first(fails)
