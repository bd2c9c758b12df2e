"""Benchmark runner for the subspectral package.

Usage, from the root of a checkout (no install step; the package is
imported from ``src/``):

    python3 perfbench/run.py --workload spectral_grid --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop (one caller, seeded operations back to
back, whole rounds until ``--seconds`` have passed and at least 100
operations are done), checks every result after its round outside the
operation timings, and prints one JSON object as the last line of standard output: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the package's layers are
wrapped in spans, the span file goes to ``perfbench/out/``, and the metrics
are the per-layer ones.  See README.md.
"""

import time

_T0 = time.perf_counter()  # as early as possible; process age is added below

import argparse  # noqa: E402
import bisect  # noqa: E402
import cmath  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from array import array  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
MAX_FAILS = 20  # check messages kept; later ones are dropped
CAL_EVERY_S = 0.05  # interval between calibration slices in the timed phase
CAL_REF_S = 1e-3  # a calibration slice takes this long at the reference speed
CAL_WINDOW = 10  # slices on each side of an operation that set its speed factor


def _process_age() -> float:
    """Seconds between the start of this process and now, from the kernel's
    process start time (clock-tick resolution); 0 where unavailable."""
    try:
        with open("/proc/self/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return max(0.0, time.clock_gettime(time.CLOCK_BOOTTIME) - started)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_AGE_AT_T0 = _process_age() - (time.perf_counter() - _T0)


def calibration_slice() -> None:
    """Fixed interpreter work like the package's hot loops (rational
    arithmetic with 160-bit denominators, float phases, a plain float loop),
    written without the package, so that a change to the package cannot
    move it.  Its time tracks the machine's speed: over four minutes on a
    2-core machine whose speed swung by 1.6x, the ratio of workload time to
    slice time varied by a sixth as much as the workload time itself."""
    step_a = Fraction(3**100 + 1, 2**160)
    step_b = Fraction(5**69 + 3, 2**160)
    omega = Fraction(31337, 100003)
    t = Fraction(0)
    acc = 0j
    for i in range(100):
        t += step_a if i % 3 else step_b
        acc += cmath.exp(-2j * math.pi * float((omega * t) % 1))
    x = 0.0
    for i in range(1500):
        x += i * 0.5


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _percentile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _load_package():
    """Import the package from this checkout's ``src/`` and nowhere else."""
    init = SRC / "subspectral" / "__init__.py"
    if not init.is_file():
        raise FileNotFoundError(f"no package source at {init}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import subspectral

    if Path(subspectral.__file__).resolve() != init.resolve():
        raise ImportError(f"subspectral imported from {subspectral.__file__}")


def _riesz_cache_stats():
    from subspectral import riesz

    transfer = riesz._transfer_matrix.cache_info()
    prefix = riesz._prefix_product.cache_info()
    return {
        "transfer": (transfer.hits, transfer.misses),
        "prefix": (prefix.hits, prefix.misses),
    }


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        _load_package()
    except (ImportError, FileNotFoundError) as exc:
        print(f"cannot load the package: {exc}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    wl = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    cache_before = _riesz_cache_stats()

    # per-operation figures are kept in flat arrays, and results are dropped
    # after their round's check, so that the benchmark's own memory barely
    # grows with the number of operations and peak RSS is the program's
    latencies, ends = array("d"), array("d")
    calibration, cal_ends = array("d"), array("d")
    attempted = failed = 0
    fails: list[str] = []
    checking_s = 0.0
    setup_s = _AGE_AT_T0 + (time.perf_counter() - _T0)
    start = time.perf_counter()
    last_cal = -CAL_EVERY_S
    while True:
        done = []
        for item in wl.next_round():
            index = attempted
            attempted += 1
            if tracer is not None:
                tracer.op_id = index
            t = time.perf_counter()
            try:
                result = wl.op(item)
            except Exception:  # an operation's failure is counted, not fatal
                failed += 1
                traceback.print_exc(file=sys.stderr)
                result = None
            dt = time.perf_counter() - t
            if result is not None:
                latencies.append(dt)
                ends.append(t + dt)
                done.append((index, item, result))
            if t + dt - last_cal >= CAL_EVERY_S:
                c = time.perf_counter()
                calibration_slice()
                last_cal = time.perf_counter()
                calibration.append(last_cal - c)
                cal_ends.append(last_cal)
        c = time.perf_counter()
        if tracer is not None:
            tracer.op_id = -1
        for index, item, result in done:
            fails += wl.check_op(index, item, result)
            del fails[MAX_FAILS:]
        checking_s += time.perf_counter() - c
        elapsed = time.perf_counter() - start - checking_s - sum(calibration)
        if elapsed >= args.seconds and attempted >= workloads.MIN_OPS:
            break
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    cache_after = _riesz_cache_stats()
    timed_ops = set(range(attempted))

    if not latencies:
        print("no operation succeeded; no metric to report", file=sys.stderr)
        return 1
    fails += wl.finish(out_dir)
    for line in fails:
        print(f"check failed: {line}", file=sys.stderr)
    # machine speed relative to the reference, from the calibration slices
    # nearest in time: every time is divided by it
    def speed(at: float) -> float:
        i = bisect.bisect(cal_ends, at)
        near = calibration[max(0, i - CAL_WINDOW) : i + CAL_WINDOW]
        return statistics.median(near) / CAL_REF_S

    slow = statistics.median(calibration) / CAL_REF_S
    scaled = [dt / speed(end) for dt, end in zip(latencies, ends)]
    raw = {
        "setup_s": setup_s,
        "ops_per_s": len(latencies) / elapsed,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p90_ms": _percentile(latencies, 90) * 1e3,
    }
    print(
        f"{args.workload}: {attempted} ops, {failed} failed, raw "
        + ", ".join(f"{k}={v:.6g}" for k, v in raw.items())
        + f", speed factor {slow:.4f} from {len(calibration)} calibration slices",
        file=sys.stderr,
    )

    if tracer is None:
        metrics = {
            "setup_s": (setup_s / speed(start), "s"),
            "ops_per_s": (len(scaled) / sum(scaled), "op/s"),
            "op_p50_ms": (statistics.median(scaled) * 1e3, "ms"),
            "op_p90_ms": (_percentile(scaled, 90) * 1e3, "ms"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        metrics = _layer_metrics(tracer, timed_ops, cache_before, cache_after, wl, slow)
        tracer.write(OUT / f"spans_{args.workload}.npz")
    print(
        json.dumps(
            {
                "correct": not fails,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


def _layer_metrics(tracer, timed_ops, cache_before, cache_after, wl, slow):
    """Per-layer metrics: self time, calls and counters per timed operation;
    memo hit ratios over the timed phase; the cli layer over the check
    phase, as totals.  Self times are divided by the speed factor, like the
    end-to-end times."""
    from tracing import COUNTERS

    ops = len(timed_ops)
    timed = tracer.layer_totals(timed_ops)
    check = tracer.layer_totals({-1})
    metrics = {}
    for layer, (self_s, calls) in timed.items():
        if layer == "cli":
            continue
        metrics[f"{layer}.self_s"] = (self_s / ops / slow, "s/op")
        metrics[f"{layer}.calls"] = (calls / ops, "1/op")
    for key in ("transfer", "prefix"):
        hits = cache_after[key][0] - cache_before[key][0]
        misses = cache_after[key][1] - cache_before[key][1]
        metrics[f"riesz.{key}_hit_ratio"] = (
            hits / (hits + misses) if hits + misses else 0.0,
            "ratio",
        )
    for name in dict.fromkeys(name for _, name, _ in COUNTERS):
        metrics[name] = (tracer.counter_total(name, timed_ops) / ops, "1/op")
    metrics["cli.self_s"] = (check["cli"][0] / slow, "s")
    metrics["cli.calls"] = (check["cli"][1], "count")
    metrics["cli.bytes_written"] = (getattr(wl, "cli_bytes", 0), "B")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
