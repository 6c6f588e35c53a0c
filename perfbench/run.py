#!/usr/bin/env python3
"""Benchmark of the seshadri certificate pipeline.

Run from the root of the repository:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones.  Every answer is checked; the last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--out FILE`` also writes the samples, the environment
and (traced runs) the spans.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BUILD_LOG = ROOT / ".bench_build" / "build.log"
WORKLOADS = ("asymptotic", "lattice", "modular", "exact")


def build() -> bool:
    """Build the package in place with its own setup.py, once per checkout.

    The build compiles the optional rank kernel when the toolchain allows
    it and is a no-op otherwise; the run records which backend it got.
    """
    if BUILD_LOG.exists():
        return True
    BUILD_LOG.parent.mkdir(exist_ok=True)
    partial = BUILD_LOG.with_suffix(".partial")
    try:
        with open(partial, "w", encoding="utf-8") as log:
            proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"],
                                  cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                                  timeout=800)
    except subprocess.TimeoutExpired:
        return False
    if proc.returncode != 0:
        return False
    partial.replace(BUILD_LOG)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result record here")
    args = parser.parse_args(argv)

    if not (SRC / "seshadri" / "__init__.py").is_file():
        print(f"error: no seshadri sources at {SRC}", file=sys.stderr)
        return 2
    if not build():
        print(f"error: the build failed; see {BUILD_LOG.with_suffix('.partial')}",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    import seshadri
    if not Path(seshadri.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: imported seshadri from {seshadri.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = harness.measure(workloads.make(args.workload, args.seed), args.seed,
                             args.seconds, bool(args.trace))
    missing = [m["name"] for m in wanted if m["name"] not in result.metrics]
    if missing:
        print(f"error: no measurement for {missing}; failures: {result.failures}",
              file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(result.env, sort_keys=True))
    for m in wanted:
        name = m["name"]
        line = f"  {name:28s} {m['unit']:6s} {result.metrics[name]:.6g}"
        if name in result.samples:
            line += "  " + harness.summarize(result.samples[name])
        if name + ".wall" in result.samples:
            line += "; wall s " + harness.summarize(result.samples[name + ".wall"])
        print(line)
    print(f"  fail_ratio {result.fail_ratio:.6g} "
          f"({len(result.failures)} of {result.attempted} operations)")
    for failure in result.failures:
        print(f"  FAILED {failure}")
    if args.out:
        Path(args.out).write_text(json.dumps(result.to_json(), indent=1) + "\n",
                                  encoding="utf-8")
    print(json.dumps({
        "correct": not result.failures,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": {m["name"]: {"value": result.metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
