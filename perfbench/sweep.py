"""Repeated runs of the benchmark and the tables of README.md.

    python3 perfbench/sweep.py --seeds 1-10 --json perfbench/out/set_a.json
    python3 perfbench/sweep.py --seeds 11-20 --json perfbench/out/set_b.json \\
        --compare perfbench/out/set_a.json
    python3 perfbench/sweep.py --trace-seed 1

Runs ``run.py`` once per workload and seed (each run in its own process,
as the benchmark is meant to be run), then prints, per workload and
end-to-end metric, the median, the quartiles and the spread (quartile
distance over median) next to the metric's bound.  ``--compare`` adds the
shift of each median against an earlier set.  ``--trace-seed`` runs every
workload traced and untraced at that seed and prints the per-layer table
with the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, float]:
    """One benchmark run: its JSON result and its speed-normalised
    operations per second (from the summary line on standard error)."""
    proc = subprocess.run(
        SPEC["command"]
        + ["--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    match = re.search(r"ops_per_s=([0-9.e+-]+).*speed factor ([0-9.]+)", proc.stderr)
    return result, float(match.group(1)) * float(match.group(2))


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def sweep(seeds: list[int], compare: dict | None) -> dict:
    table: dict = {}
    for wl in SPEC["workloads"]:
        name = wl["name"]
        runs = []
        for seed in seeds:
            result, _ = run_once(name, seed, 0)
            runs.append(result)
            print(f"{name} seed {seed}: {json.dumps(result)}", file=sys.stderr)
        table[name] = runs
    print("| workload | metric | median | q1 | q3 | spread | bound | "
          + ("median shift | " if compare else "") + "runs |")
    print("|---|---|---|---|---|---|---|" + ("---|" if compare else "") + "---|")
    for name, runs in table.items():
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med, q1, q3, spread = _spread(values)
            row = [name, metric["name"], f"{med:.4g}", f"{q1:.4g}", f"{q3:.4g}",
                   f"{spread:.3f}", str(metric["bound"])]
            if compare:
                old = statistics.median(
                    r["metrics"][metric["name"]]["value"] for r in compare[name]
                )
                row.append(f"{(med - old) / old:+.3f}")
            ok = all(r["correct"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            attempted = sum(r["attempted"] for r in runs)
            row.append(f"{len(runs)}, correct={ok}, failed {failed}/{attempted}")
            print("| " + " | ".join(row) + " |")
    return table


def traced(seed: int) -> None:
    results = {}
    for wl in SPEC["workloads"]:
        _, plain_ops = run_once(wl["name"], seed, 0)
        trace, trace_ops = run_once(wl["name"], seed, 1)
        results[wl["name"]] = (trace, 1 - trace_ops / plain_ops)
    header = list(results)
    print("| metric | unit | " + " | ".join(header) + " |")
    print("|---|---|" + "---|" * len(header))
    for metric in SPEC["per_layer"]:
        cells = [f"{results[w][0]['metrics'][metric['name']]['value']:.4g}" for w in header]
        print(f"| {metric['name']} | {metric['unit']} | " + " | ".join(cells) + " |")
    cells = [f"{results[w][1]:.3f}" for w in header]
    print("| tracing overhead (1 - traced/untraced op/s) | share | " + " | ".join(cells) + " |")
    cells = [str(results[w][0]["correct"]) for w in header]
    print("| traced run correct | | " + " | ".join(cells) + " |")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default=None, help="e.g. 1-10")
    parser.add_argument("--json", default=None, help="where to save the runs")
    parser.add_argument("--compare", default=None, help="runs saved by --json")
    parser.add_argument("--trace-seed", type=int, default=None)
    args = parser.parse_args()
    if args.seeds:
        compare = json.loads(Path(args.compare).read_text()) if args.compare else None
        table = sweep(_seeds(args.seeds), compare)
        if args.json:
            Path(args.json).parent.mkdir(parents=True, exist_ok=True)
            Path(args.json).write_text(json.dumps(table))
    if args.trace_seed is not None:
        traced(args.trace_seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
