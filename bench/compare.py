"""Medians, spreads and verdicts over result files written by run.py.

The spread of a metric is the distance between the first and third
quartiles of its runs (``statistics.quantiles(values, n=4)``) as a share of
their median.  A metric worse than the old median by more than its bound
in BENCHMARK.json is a regression; a metric whose spread on either side
exceeds the bound is unresolved, unless every new run beats every old run.
"""

from __future__ import annotations

import json
import statistics


def load_runs(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)["runs"]


def by_workload(runs: list[dict]) -> dict[str, dict]:
    """workload -> {"metrics": {name: [values]}, "attempted": n, "failed": n}."""
    out: dict[str, dict] = {}
    for run in runs:
        if run["trace"]:
            continue
        entry = out.setdefault(run["workload"], {"metrics": {}, "attempted": 0, "failed": 0})
        entry["attempted"] += run["attempted"]
        entry["failed"] += run["failed"]
        for name, metric in run["metrics"].items():
            entry["metrics"].setdefault(name, []).append(metric["value"])
    return out


def spread(values: list[float]) -> float | None:
    """(Q3 - Q1) / median, or None with fewer than two runs."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def worse_share(old: float, new: float, better: str) -> float:
    """How much worse new is than old, as a share of old (negative when better)."""
    change = (new - old) / abs(old)
    return change if better == "lower" else -change


def verdict(old: list[float], new: list[float], metric: dict) -> str:
    bound, better = metric["bound"], metric["better"]
    share = worse_share(statistics.median(old), statistics.median(new), better)
    spreads = [spread(old), spread(new)]
    if better == "lower":
        all_better = max(new) < min(old)
    else:
        all_better = min(new) > max(old)
    if None in spreads or max(spreads) > bound:
        return "better in every run" if all_better else "unresolved"
    if share > bound:
        return "REGRESSION"
    if -share > bound:
        return "better beyond bound"
    return "within bound"


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.4g}"


def main(old_path: str, new_path: str, spec: dict) -> int:
    """Print one row per workload and end-to-end metric; exit 1 on a regression."""
    old, new = by_workload(load_runs(old_path)), by_workload(load_runs(new_path))
    header = f"{'workload':<8} {'metric':<14} {'unit':<6} {'old':>10} {'new':>10} {'new/old':>8} {'spread old':>10} {'spread new':>10} {'bound':>6}  verdict"
    print(header)
    regressions = 0
    for workload in sorted(set(old) & set(new)):
        for metric in spec["end_to_end"]:
            a = old[workload]["metrics"].get(metric["name"])
            b = new[workload]["metrics"].get(metric["name"])
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            result = verdict(a, b, metric)
            regressions += result == "REGRESSION"
            print(
                f"{workload:<8} {metric['name']:<14} {metric['unit']:<6} {_fmt(ma):>10} {_fmt(mb):>10} "
                f"{_fmt(mb / ma):>8} {_fmt(spread(a)):>10} {_fmt(spread(b)):>10} {metric['bound']:>6}  {result}"
            )
        fa = old[workload]["failed"] / old[workload]["attempted"]
        fb = new[workload]["failed"] / new[workload]["attempted"]
        result = "REGRESSION" if fb > fa else "within bound"
        regressions += fb > fa
        print(f"{workload:<8} {'fail_ratio':<14} {'-':<6} {_fmt(fa):>10} {_fmt(fb):>10} {'':>8} {'':>10} {'':>10} {0:>6}  {result}")
    for workload in sorted(set(old) ^ set(new)):
        print(f"{workload:<8} present in only one file")
    return 1 if regressions else 0


def print_spreads(runs: list[dict], spec: dict):
    """Median and spread of each end-to-end metric over the runs of each workload."""
    print(f"{'workload':<8} {'metric':<14} {'runs':>4} {'median':>12} {'spread':>8} {'bound':>6} {'spread/bound':>12}")
    for workload, entry in by_workload(runs).items():
        for metric in spec["end_to_end"]:
            values = entry["metrics"].get(metric["name"], [])
            if not values:
                continue
            s = spread(values)
            ratio = None if s is None else s / metric["bound"]
            print(
                f"{workload:<8} {metric['name']:<14} {len(values):>4} {statistics.median(values):>12.6g} "
                f"{_fmt(s):>8} {metric['bound']:>6} {_fmt(ratio):>12}"
            )
        print(f"{workload:<8} {'fail_ratio':<14} {'':>4} {entry['failed'] / entry['attempted']:>12.6g}")
