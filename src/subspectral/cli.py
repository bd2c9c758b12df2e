"""Command-line front end: parse substitution configs, dispatch the
spectral, flow, Diophantine, and measure-scan experiments, and emit CSV
artifacts with reproducibility manifests.

Exit codes: 0 success, 2 hypothesis violation (wrong algebraic class, a
non-mean-zero observable, and similar structural refusals), 3 precision or
budget exhaustion, 4 configuration / usage errors.

All CSV output is UTF-8 with a header row, RFC-4180 line endings and
quoting, '.' decimals, and no wall-clock data, so identical invocations
produce byte-identical files.  Timing lives in the manifest, which also
records the config hash, the full parameter set, and every derived
constant of the invoked pipeline.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import random
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

from . import __version__
from .algebraic import AlgebraicInteger, classify, prop_alg_constants
from .bernoulli import bc_log_decay_scan, erdos_nondecay
from .diophantine import (
    ek_constants,
    ek_step_predict,
    pisot_sequence,
    prop_alg_product,
    window_escape_check,
)
from .errors import (
    BudgetExceeded,
    ConfigError,
    DegenerateF,
    NotFound,
    NotInLanguage,
    NotMeanZero,
    NotPrimitive,
    NotSquarefree,
    PrecisionExhausted,
    TailNotConverged,
    WrongClass,
)
from .flows import (
    _theta_min_poly,
    cocycle_phi2,
    eigen2_data,
    ergodic_decomposition_check,
    log_holder_certificate,
    make_flow,
    self_similar_roof,
    zero_scaling_experiment,
)
from .riesz import DEFAULT_PRECISION_BITS
from .spectral import (
    dioph_constants,
    dioph_product_bound,
    local_dimension_bound,
    spectral_ball_bound,
)
from .substitution import (
    Substitution,
    char_poly,
    find_return_word,
    is_aperiodic_heuristic,
    is_primitive,
    perron_data,
    substitution_matrix,
)

HYPOTHESIS_ERRORS = (
    WrongClass,
    NotMeanZero,
    DegenerateF,
    NotPrimitive,
    NotFound,
    NotInLanguage,
    NotSquarefree,
)
RESOURCE_ERRORS = (PrecisionExhausted, TailNotConverged, BudgetExceeded)

EXIT_OK = 0
EXIT_HYPOTHESIS = 2
EXIT_PRECISION = 3
EXIT_CONFIG = 4

# ---------------------------------------------------------------------------
# formatting and parsing helpers


def _fmt(x) -> str:
    """Deterministic, locale-free cell rendering."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, Fraction):
        if x.denominator == 1:
            return str(x.numerator)
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, str):
        return x
    return repr(float(x))


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ValueError:
        return Fraction(float(text))


def _parse_fraction_list(text: str) -> list[Fraction]:
    return [_parse_fraction(part) for part in text.split(",") if part != ""]


def _parse_float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part != ""]


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def _parse_grid(text: str) -> list[Fraction]:
    """Either a comma list of numbers or ``linspace:lo:hi:count`` (endpoint
    excluded, exact rational spacing)."""
    if text.startswith("linspace:"):
        try:
            _, lo_s, hi_s, count_s = text.split(":")
            lo, hi, count = _parse_fraction(lo_s), _parse_fraction(hi_s), int(count_s)
        except ValueError as exc:
            raise ConfigError(f"bad grid spec {text!r}: {exc}") from exc
        if count < 0:
            raise ConfigError("grid count must be nonnegative")
        if count == 0:
            return []
        step = (hi - lo) / count
        return [lo + k * step for k in range(count)]
    return _parse_fraction_list(text)


def _load_config(path: str) -> tuple[dict, bytes]:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        cfg = json.loads(raw.decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error in {path} at line {exc.lineno}, "
            f"column {exc.colno}: {exc.msg}"
        ) from exc
    return cfg, raw


def _write_csv(path: Path, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(cell) for cell in row])


def _json_ready(value):
    if isinstance(value, Fraction):
        return _fmt(value)
    if isinstance(value, (list, tuple)):
        return [_json_ready(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_ready(v) for k, v in value.items()}
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return repr(value)


def _write_manifest(
    out_dir: Path,
    args: argparse.Namespace,
    config_bytes: bytes | None,
    constants: dict,
    started: float,
    outputs: Sequence[str],
) -> None:
    payload = {
        "command": args.command
        + ("" if getattr(args, "subcommand", None) is None else f" {args.subcommand}"),
        "config_hash": hashlib.sha256(config_bytes or b"").hexdigest(),
        "parameters": {
            k: _json_ready(v)
            for k, v in sorted(vars(args).items())
            if k not in ("func",)
        },
        "derived_constants": _json_ready(constants),
        "precision_bits": args.precision_bits,
        "library_version": __version__,
        "outputs": list(outputs),
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    with open(out_dir / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _resolve_out(args) -> Path | None:
    if not args.out:
        return None
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _emit(
    args,
    config_bytes: bytes | None,
    csv_name: str,
    header: Sequence[str],
    rows: Sequence[Sequence],
    constants: dict,
    started: float,
) -> None:
    out = _resolve_out(args)
    if out is None:
        return
    _write_csv(out / csv_name, header, rows)
    _write_manifest(out, args, config_bytes, constants, started, [csv_name])


def _substitution_from(args) -> tuple[Substitution, bytes]:
    cfg, raw = _load_config(args.config)
    return Substitution.from_config(cfg), raw


def _algebraic_from(args) -> AlgebraicInteger:
    coeffs = _parse_int_list(args.poly)
    bits = args.precision_bits or 128
    return AlgebraicInteger.from_poly(coeffs, precision_bits=bits)


# ---------------------------------------------------------------------------
# inspect


def cmd_inspect(args) -> int:
    started = time.monotonic()
    zeta, raw = _substitution_from(args)
    S = substitution_matrix(zeta)
    prim = is_primitive(S)
    report: dict = {
        "alphabet": zeta.m,
        "images": ["".join(str(c) for c in img) for img in zeta.images],
        "matrix": [list(row) for row in S],
        "char_poly_ascending": list(char_poly(S)),
        "primitive": prim.primitive,
        "primitivity_power": prim.power,
    }
    lines = [
        f"alphabet: {zeta.m}",
        f"matrix: {report['matrix']}",
        f"primitive: {prim.primitive}"
        + (f" (power {prim.power})" if prim.primitive else ""),
    ]
    if prim.primitive:
        pd = perron_data(S)
        minpoly = _theta_min_poly(zeta)
        bits = args.precision_bits or 128
        ai = AlgebraicInteger.from_poly(minpoly, precision_bits=bits)
        cls = classify(ai)
        report["theta"] = float(pd.theta)
        report["theta_min_poly_descending"] = list(minpoly)
        report["classification"] = cls.kind
        lines.append(f"theta: {float(pd.theta):.6f}")
        lines.append(f"min poly (descending): {list(minpoly)}")
        lines.append(f"classification: {cls.kind}")
        try:
            rw = find_return_word(zeta)
            word = "".join(str(c) for c in rw.v)
            report["return_word"] = {"v": word, "c": rw.c, "power": rw.power}
            lines.append(f"return word: v={word} c={rw.c} power={rw.power}")
        except NotFound:
            report["return_word"] = None
            lines.append("return word: none found")
        aper = is_aperiodic_heuristic(zeta)
        report["aperiodicity"] = {"kind": aper.kind, "period": aper.period}
        lines.append(
            f"aperiodicity: {aper.kind}"
            + (f" (period {aper.period})" if aper.period else "")
        )
    print("\n".join(lines))
    out = _resolve_out(args)
    if out is not None:
        with open(out / "inspect.json", "w", encoding="utf-8") as handle:
            json.dump(_json_ready(report), handle, indent=2, sort_keys=True)
            handle.write("\n")
        _write_manifest(out, args, raw, {}, started, ["inspect.json"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# spectral


def cmd_spectral(args) -> int:
    started = time.monotonic()
    zeta, raw = _substitution_from(args)
    grid = _parse_grid(args.omega_grid)
    n = args.n
    if n < 0:
        raise ConfigError("n must be nonnegative")
    rw = find_return_word(zeta)
    zp = zeta.power(rw.power) if rw.power > 1 else zeta
    consts = dioph_constants(zp, rw.v, k_max=args.k_max)
    theta_n = max(1, round(float(consts.theta) ** n))
    r = Fraction(1, 2 * theta_n)
    bits = args.precision_bits = args.precision_bits or DEFAULT_PRECISION_BITS
    if bits < 2:
        raise ConfigError("precision bits must be at least 2")

    def one(om: Fraction):
        try:
            dp = dioph_product_bound(zp, rw.v, om, n, consts)
            sb = spectral_ball_bound(zp, om, r, consts)
            ld = local_dimension_bound(
                zeta, om, n_max=max(10, 4 * n), precision_bits=bits
            )
            bound_max = max(dp.per_letter)
            return (
                om,
                n,
                "ok",
                float(dp.product),
                dp.product,
                float(bound_max),
                bound_max,
                r,
                sb.upper,
                ld.alpha,
                ld.lower_bound,
                ld.exact_peak,
            )
        except PrecisionExhausted as exc:
            return (om, n, f"PrecisionExhausted: {exc}") + (None,) * 9

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            rows = list(pool.map(one, grid))
    else:
        rows = [one(om) for om in grid]

    header = (
        "omega",
        "n",
        "status",
        "product",
        "product_exact",
        "bound_max",
        "bound_max_exact",
        "ball_r",
        "ball_upper",
        "localdim_rate",
        "localdim_lower",
        "localdim_exact_peak",
    )
    constants = {
        "c1": consts.c1,
        "Cprime": consts.Cprime,
        "C2": consts.C2,
        "Cpp": consts.Cpp,
        "theta": consts.theta,
        "return_word": "".join(str(c) for c in rw.v),
        "zeta_power": rw.power,
        "k_max": consts.k_max,
    }
    _emit(args, raw, "spectral.csv", header, rows, constants, started)
    failed = sum(1 for row in rows if row[2] != "ok")
    print(f"spectral: {len(rows)} rows, {failed} flagged")
    return EXIT_PRECISION if failed else EXIT_OK


# ---------------------------------------------------------------------------
# flow experiments


def _flow_from(args):
    zeta, raw = _substitution_from(args)
    if args.roof:
        flow = make_flow(zeta, _parse_fraction_list(args.roof))
    else:
        bits = args.precision_bits or 160
        flow = self_similar_roof(zeta, precision_bits=bits)
    return flow, raw


def cmd_flow(args) -> int:
    started = time.monotonic()
    flow, raw = _flow_from(args)
    if args.subcommand == "log-holder":
        tab = log_holder_certificate(
            flow, args.B, _parse_float_list(args.r_grid), k_max=args.k_max
        )
        header = ("omega", "r", "bound", "fejer_direct", "in_regime")
        rows = [
            (row.omega, row.r, row.bound, row.fejer_direct, row.in_regime)
            for row in tab.rows
        ]
        constants = {
            "gamma": tab.gamma,
            "c1": tab.c1,
            "alpha": tab.alpha,
            "C_B": tab.C_B,
            "r0": tab.r0,
            "B": tab.B,
            "zeta_power": tab.zeta_power,
        }
        _emit(args, raw, "flow_log_holder.csv", header, rows, constants, started)
        print(f"log-holder: gamma={tab.gamma} rows={len(rows)}")
        return EXIT_OK
    if args.subcommand == "cocycle":
        t_list = _parse_fraction_list(args.t)
        header = ("anchor", "t", "value", "error_bound", "exact", "value_exact")
        rows = []
        for t in t_list:
            ev = cocycle_phi2(flow, args.anchor, t, k_levels=args.k_levels)
            rows.append(
                (args.anchor, float(t), ev.value, ev.error_bound, ev.exact,
                 ev.value_exact)
            )
        ed = eigen2_data(flow)
        ed_constants = {
            "theta2": ed.theta2,
            "e2": list(ed.e2),
            "e2_star": list(ed.e2_star),
            "alpha": math.log(float(ed.theta2)) / math.log(flow.theta),
        }
        _emit(args, raw, "flow_cocycle.csv", header, rows, ed_constants, started)
        print(f"cocycle: {len(rows)} rows")
        return EXIT_OK
    if args.subcommand == "zero-scaling":
        lo, hi = (int(part) for part in args.n_range.split(":"))
        rep = zero_scaling_experiment(
            flow,
            _parse_float_list(args.d),
            range(lo, hi + 1),
            c=args.c,
            anchors=args.anchors,
        )
        header = ("N", "T", "value", "ratio")
        rows = list(zip(rep.N_values, rep.T_values, rep.values, rep.ratios))
        constants = {
            "alpha": rep.alpha,
            "spread": rep.spread,
            "truncation_error": rep.truncation_error,
            "anchors": rep.anchors,
            "c": rep.c,
        }
        _emit(args, raw, "flow_zero_scaling.csv", header, rows, constants, started)
        print(f"zero-scaling: spread={rep.spread:.4f} over N={lo}..{hi}")
        return EXIT_OK
    if args.subcommand == "decomposition":
        if args.t_grid:
            t_grid = _parse_fraction_list(args.t_grid)
        else:
            theta = Fraction(flow.theta) if flow.theta == int(flow.theta) else None
            if theta is None:
                raise ConfigError("provide --t-grid for non-integer theta")
            t_grid = []
            for N in range(5, 13):
                t_grid += [
                    theta**N,
                    theta**N + Fraction(5, 3),
                    Fraction(4, 3) * theta**N,
                ]
        rep = ergodic_decomposition_check(
            flow, _parse_float_list(args.d), t_grid, x_anchor=args.anchor
        )
        header = ("t", "S_value", "main_term", "remainder", "exponent")
        rows = [
            (row.t, row.S_value, row.main_term, row.remainder, row.exponent)
            for row in rep.rows
        ]
        constants = {
            "alpha": rep.alpha,
            "m_value": rep.m_value,
            "max_exponent": rep.max_exponent,
        }
        _emit(args, raw, "flow_decomposition.csv", header, rows, constants, started)
        print(f"decomposition: max exponent {rep.max_exponent}")
        return EXIT_OK
    raise ConfigError(f"unknown flow subcommand {args.subcommand!r}")


# ---------------------------------------------------------------------------
# Diophantine experiments


def cmd_dioph(args) -> int:
    started = time.monotonic()
    ai = _algebraic_from(args)
    t = _parse_fraction(args.t)
    if args.subcommand == "sequence":
        seq = pisot_sequence(ai, t, args.N + 1)
        header = ("k", "K", "eps", "eps_err")
        rows = [
            (k, seq.K[k], seq.nums[k] / seq.D, float(seq.err))
            for k in range(len(seq))
        ]
        constants = {"denominator": seq.denom}
        _emit(args, None, "dioph_sequence.csv", header, rows, constants, started)
        print(f"sequence: {len(rows)} rows")
        return EXIT_OK
    if args.subcommand == "product":
        rep = prop_alg_product(ai, t, args.N, diagnostic=args.diagnostic)
        header = ("n", "value")
        rows = [(k + 1, v) for k, v in enumerate(rep.values)]
        constants = {
            "alpha": None if rep.alpha is None else float(rep.alpha),
            "beta": rep.beta,
            "delta1": rep.delta1,
            "branch": rep.branch,
            "fitted_C": None if rep.fitted_C is None else float(rep.fitted_C),
            "fitted_exponent": rep.fitted_exponent,
            "bound_ok": rep.bound_ok,
            "hypothesis_violated": rep.hypothesis_violated,
        }
        _emit(args, None, "dioph_product.csv", header, rows, constants, started)
        print(f"product: value={float(rep.value):.6e} bound_ok={rep.bound_ok}")
        return EXIT_OK
    if args.subcommand == "windows":
        rep = window_escape_check(
            ai, t, k_max=args.N, diagnostic=args.diagnostic
        )
        jitter = random.Random(args.seed)
        seq = pisot_sequence(ai, t, rep.beta * args.N)
        header = (
            "k", "window_lo", "window_hi", "passed", "argmax", "max_eps",
            "probe_index", "probe_eps",
        )
        rows = []
        for v in rep.verdicts:
            hi = rep.beta * v.k - 1
            probe = jitter.randrange(v.k, hi + 1)
            rows.append(
                (v.k, v.k, hi, v.passed, v.argmax, v.max_eps, probe,
                 abs(seq.nums[probe]) / seq.D)
            )
        constants = {
            "k0": rep.k0,
            "k0_empirical": rep.k0_empirical,
            "beta": rep.beta,
            "delta1": rep.delta1,
            "hypothesis_violated": rep.hypothesis_violated,
        }
        _emit(args, None, "dioph_windows.csv", header, rows, constants, started)
        verdict = "all-pass" if rep.first_violation is None else (
            f"violation at k={rep.first_violation}"
        )
        print(f"windows: {verdict} (k0={rep.k0}, beta={rep.beta})")
        return EXIT_OK
    if args.subcommand == "ek":
        theta_list = tuple(d.center for d in ai.roots)
        consts = ek_constants(theta_list, precision_bits=args.precision_bits or 160)
        m = len(theta_list)
        seq = pisot_sequence(ai, t, args.N + m)
        rho = float(consts.rho)
        header = (
            "k", "K_true", "predicted", "unique", "correct", "n_candidates"
        )
        rows = []
        correct = total = 0
        for i in range(args.N):
            window = [abs(seq.nums[i + j]) / seq.D for j in range(m)]
            if max(window) >= rho:
                continue
            pred = ek_step_predict(list(seq.K[i : i + m]), consts)
            truth = seq.K[i + m]
            hit = pred.unique and pred.best == truth
            rows.append(
                (i, truth, pred.best, pred.unique, pred.best == truth,
                 len(pred.candidates))
            )
            total += 1
            correct += hit
        constants = {"rho": rho, "L": consts.L, "predicted": total,
                     "correct": correct}
        _emit(args, None, "dioph_ek.csv", header, rows, constants, started)
        print(f"ek: {correct}/{total} unique predictions correct")
        return EXIT_OK
    raise ConfigError(f"unknown dioph subcommand {args.subcommand!r}")


# ---------------------------------------------------------------------------
# measure scans


def cmd_bernoulli(args) -> int:
    started = time.monotonic()
    if args.poly:
        ai = _algebraic_from(args)
    elif args.lam:
        lam = _parse_fraction(args.lam)
        inv = 1 / lam if lam > 0 else Fraction(0)
        if lam <= 0 or inv.denominator != 1 or inv < 2:
            raise ConfigError(
                "--lambda must be the reciprocal of an integer >= 2; "
                "use --poly for other algebraic parameters"
            )
        ai = AlgebraicInteger.from_poly((1, -int(inv)))
    else:
        raise ConfigError("one of --poly or --lambda is required")
    p = _parse_fraction(args.p)
    if args.subcommand == "scan":
        u_grid = _parse_fraction_list(args.u_grid) if args.u_grid else None
        rep = bc_log_decay_scan(ai, p, args.N, u_grid=u_grid)
        header = ("xi", "re", "im", "modulus", "bound_chain", "scan_value")
        rows = [
            (row.xi, row.value.real, row.value.imag, row.modulus,
             row.bound_chain, row.scan_value)
            for row in rep.rows
        ]
        constants = {
            "alpha": rep.alpha,
            "sup_value": rep.sup_value,
            "truncation": rep.truncation,
        }
        _emit(args, None, "bernoulli_scan.csv", header, rows, constants, started)
        print(f"scan: sup={rep.sup_value:.6f} over {len(rows)} points")
        return EXIT_OK
    if args.subcommand == "nondecay":
        rep = erdos_nondecay(ai, args.N, p=p)
        theta = float(ai.theta)
        header = ("N", "xi", "value", "running_inf")
        rows = [
            (N, theta**N, rep.values[N], rep.running_inf[N])
            for N in rep.N_values
        ]
        constants = {
            "floor": rep.floor,
            "positive": rep.positive,
            "lam": rep.lam,
        }
        _emit(args, None, "bernoulli_nondecay.csv", header, rows, constants,
              started)
        print(f"nondecay: floor={rep.floor:.6e} positive={rep.positive}")
        return EXIT_OK
    raise ConfigError(f"unknown bernoulli subcommand {args.subcommand!r}")


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(parser: argparse.ArgumentParser, config: bool = True) -> None:
    if config:
        parser.add_argument("--config", required=True, help="substitution config JSON")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument(
        "--precision-bits",
        type=int,
        default=None,
        help="working precision in bits; for spectral, the transfer products "
        "run at scale 2^-P (default 106)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspectral",
        description="substitution dynamics experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_inspect = sub.add_parser("inspect", help="report on a substitution config")
    _add_common(p_inspect)
    p_inspect.set_defaults(func=cmd_inspect, subcommand=None)

    p_spec = sub.add_parser("spectral", help="product/ball/dimension table")
    _add_common(p_spec)
    p_spec.add_argument(
        "--threads",
        type=int,
        default=1,
        help="worker pool size for the grid rows; output order and bytes are "
        "independent of this value",
    )
    p_spec.add_argument("--omega-grid", required=True,
                        help="comma list or linspace:lo:hi:count")
    p_spec.add_argument("--n", type=int, default=12)
    p_spec.add_argument("--k-max", type=int, default=20)
    p_spec.set_defaults(func=cmd_spectral, subcommand=None)

    p_flow = sub.add_parser("flow", help="suspension-flow experiments")
    p_flow.add_argument(
        "subcommand",
        choices=("log-holder", "cocycle", "zero-scaling", "decomposition"),
    )
    _add_common(p_flow)
    p_flow.add_argument("--roof", default=None,
                        help="comma roof values (default: self-similar)")
    p_flow.add_argument("--B", type=float, default=4.0)
    p_flow.add_argument("--r-grid", default="1e-2,1e-3,1e-4")
    p_flow.add_argument("--k-max", type=int, default=12)
    p_flow.add_argument("--anchor", type=int, default=0)
    p_flow.add_argument("--t", default="0")
    p_flow.add_argument("--k-levels", type=int, default=30)
    p_flow.add_argument("--d", default="1,-1")
    p_flow.add_argument("--n-range", default="4:9")
    p_flow.add_argument("--anchors", type=int, default=64)
    p_flow.add_argument("--c", type=float, default=1.0)
    p_flow.add_argument("--t-grid", default=None)
    p_flow.set_defaults(func=cmd_flow)

    p_dioph = sub.add_parser("dioph", help="Diophantine experiments")
    p_dioph.add_argument(
        "subcommand", choices=("sequence", "product", "windows", "ek")
    )
    _add_common(p_dioph, config=False)
    p_dioph.add_argument("--seed", type=int, default=0,
                         help="probe jitter of windows only")
    p_dioph.add_argument("--diagnostic", action="store_true")
    p_dioph.add_argument("--poly", required=True,
                         help="monic integer coefficients, descending")
    p_dioph.add_argument("--t", default="1")
    p_dioph.add_argument("--N", type=int, default=50)
    p_dioph.set_defaults(func=cmd_dioph)

    p_bc = sub.add_parser("bernoulli", help="measure transform scans")
    p_bc.add_argument("subcommand", choices=("scan", "nondecay"))
    _add_common(p_bc, config=False)
    p_bc.add_argument("--poly", default=None)
    p_bc.add_argument("--lambda", dest="lam", default=None)
    p_bc.add_argument("--p", default="1/2")
    p_bc.add_argument("--N", type=int, default=25)
    p_bc.add_argument("--u-grid", default=None)
    p_bc.set_defaults(func=cmd_bernoulli)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return args.func(args)
    except HYPOTHESIS_ERRORS as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except RESOURCE_ERRORS as exc:
        print(f"precision/budget exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
