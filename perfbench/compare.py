"""Compare two sets of benchmark results, parent against change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result files that ``run.py --trace 0`` wrote to
``perfbench/out/results/`` in one checkout. Runs pair up by workload and
seed; run each pair back to back and alternate which side goes first. One
row per workload and end-to-end metric, with each side's median and
quartiles over its runs, and a verdict:

- ``gain``: at least 10 pairs, the change wins at least 9 in 10 of them (ties
  count for neither side), and the medians differ by more than the parent's
  interquartile range;
- ``unresolved``: either side spreads (IQR / median) wider than the metric's
  bound, unless every change run reads better than every parent run;
- ``regression``: the change's median is worse than the parent's by more
  than the bound fixed in BENCHMARK.json;
- ``within bound`` otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from stats import quartiles, spread, tail

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> untraced result record."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.json")):
        rec = json.loads(path.read_text())
        if rec.get("trace") == 0:
            runs.setdefault(rec["workload"], {})[rec["seed"]] = rec
    return runs


def verdict(parent: list[float], change: list[float], pairs: list[tuple[float, float]],
            bound: float, lower_is_better: bool) -> tuple[str, int]:
    sign = 1.0 if lower_is_better else -1.0
    better = [sign * (p - c) > 0 for p, c in pairs]
    wins = sum(better)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (pm - cm) > p3 - p1):
        return "gain", wins
    all_better = (max(change) < min(parent) if lower_is_better
                  else min(change) > max(parent))
    if max(spread(parent), spread(change)) > bound and not all_better:
        return "unresolved", wins
    worse_by = sign * (cm - pm) / abs(pm) if pm else 0.0
    return ("regression" if worse_by > bound else "within bound"), wins


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    parent, change = load(args.parent), load(args.change)
    print(f"{'workload':15s} {'metric':12s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'delta':>8s} {'wins':>6s} "
          f"{'spread p/c':>11s} {'bound':>6s}  verdict")
    regressions = 0
    for workload in sorted(set(parent) | set(change)):
        pr, ch = parent.get(workload, {}), change.get(workload, {})
        if not pr or not ch:
            print(f"{workload:15s} missing on the {'change' if pr else 'parent'} side")
            continue
        seeds = sorted(set(pr) & set(ch))
        for name, m in spec.items():
            pv = [r["metrics"][name]["value"] for r in pr.values()]
            cv = [r["metrics"][name]["value"] for r in ch.values()]
            pairs = [(pr[s]["metrics"][name]["value"], ch[s]["metrics"][name]["value"])
                     for s in seeds]
            lower = m["better"] == "lower"
            word, wins = verdict(pv, cv, pairs, m["bound"], lower)
            regressions += word == "regression"
            (p1, pm, p3), (c1, cm, c3) = quartiles(pv), quartiles(cv)
            delta = (cm - pm) / abs(pm) if pm else 0.0
            print(f"{workload:15s} {name:12s} {pm:12.4g} [{p1:.4g}, {p3:.4g}]".ljust(59)
                  + f"{cm:12.4g} [{c1:.4g}, {c3:.4g}]".ljust(31)
                  + f"{delta:+8.1%} {wins:>3d}/{len(pairs):<2d} "
                  f"{spread(pv):5.3f}/{spread(cv):5.3f} {m['bound']:6.2f}  {word}")
        for side, runs in (("parent", pr), ("change", ch)):
            samples = [x for r in runs.values() for x in r["samples"]["verdict_s"]]
            t = tail(samples)
            print(f"{'':15s} verdict_s over all {side} passes: n={len(samples)}"
                  + (f", p{t[0]} {t[1]:.4g} s" if t else ""))
        failed = {side: sum(r["failed"] for r in runs.values())
                  for side, runs in (("parent", pr), ("change", ch))}
        attempted = {side: sum(r["attempted"] for r in runs.values())
                     for side, runs in (("parent", pr), ("change", ch))}
        print(f"{'':15s} fail_ratio parent {failed['parent']}/{attempted['parent']}, "
              f"change {failed['change']}/{attempted['change']}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
