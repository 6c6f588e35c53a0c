#!/usr/bin/env python3
"""Compare two sets of result files written by ``run.py --out``.

    python3 perfbench/compare.py --base a1.json a2.json ... --new b1.json b2.json ...

Prints, per metric, the median of each side, their ratio, and the spread
of the base runs (quartile distance over median).  Results measured on
different kernel backends, workloads or trace modes are not comparable,
and the script refuses them with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import List


class Incomparable(ValueError):
    """The result sets were not measured under the same conditions."""


def _spread(values: List[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def compare(base: List[dict], new: List[dict]) -> str:
    """Table of base and new medians per metric; raises Incomparable."""
    for key, label in ((lambda r: r["env"]["backend"], "kernel backend"),
                       (lambda r: r["workload"], "workload"),
                       (lambda r: r["trace"], "trace mode")):
        seen = {key(r) for r in base + new}
        if len(seen) > 1:
            raise Incomparable(f"results differ in {label}: {sorted(map(str, seen))}")
    lines = [f"{'metric':28s} {'base':>12s} {'new':>12s} {'new/base':>9s} "
             f"{'base spread':>11s}"]
    for name in base[0]["metrics"]:
        b = [r["metrics"][name] for r in base]
        n = [r["metrics"][name] for r in new]
        mb, mn = statistics.median(b), statistics.median(n)
        ratio = f"{mn / mb:9.3f}" if mb else f"{'-':>9s}"
        lines.append(f"{name:28s} {mb:12.6g} {mn:12.6g} {ratio} {_spread(b):11.3f}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)

    def load(paths):
        out = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                out.append(json.load(fh))
        return out

    try:
        print(compare(load(args.base), load(args.new)))
    except Incomparable as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
