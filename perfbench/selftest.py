#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny scales.

Run from the root of the repository:

    python3 perfbench/selftest.py

Every workload runs untraced and traced at n=13 (asymptotic: two copies,
four m values).  The test asserts that every workload and metric named in
BENCHMARK.json is emitted, that nothing fails on the current code, that
layer self times cover the traced certificate operations, that tracing
puts every rebound attribute back, that results from different kernel
backends are refused, and that each planted wrong answer raises
fail_ratio above 0.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import seshadri.certify as certify  # noqa: E402
from seshadri.lattice import LatticeSet  # noqa: E402

import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SECONDS = 0.2
MODES = {"lattice": "none", "modular": "modular", "exact": "exact"}


def tiny(name: str, seed: int = 1):
    if name == "asymptotic":
        return workloads.Asymptotic(seed, copies=2, m_count=4)
    return workloads.Certificates(name, MODES[name], seed, (13,), cli_n=13)


def measure(name: str, trace: bool = False) -> harness.Result:
    return harness.measure(tiny(name), 1, SECONDS, trace, setup_reps=1)


@contextmanager
def planted(owner, attr: str, make_wrong):
    original = getattr(owner, attr)
    setattr(owner, attr, make_wrong(original))
    try:
        yield
    finally:
        setattr(owner, attr, original)


def drop_a_point(split):
    def wrong(D, F, scale):
        mine, rest = split(D, F, scale)
        return LatticeSet(mine.points[1:]), rest
    return wrong


def special_verdict(oracle_fn):
    def wrong(*args, **kwargs):
        verdict = oracle_fn(*args, **kwargs)
        return dataclasses.replace(verdict, non_special=False,
                                   actual_dimension=verdict.actual_dimension + 1)
    return wrong


def raising(_fn):
    def wrong(*args, **kwargs):
        raise RuntimeError("planted crash")
    return wrong


def unstable_json(dump):
    calls = []

    def wrong(data):
        calls.append(None)
        return dump(data) + " " * (len(calls) % 2)
    return wrong


PLANTED = [
    ("asymptotic", certify, "certified_bound", lambda f: lambda dis: Fraction(1, 3)),
    ("lattice", certify, "split_by_affine", drop_a_point),
    ("modular", certify, "system_dimension_modp", special_verdict),
    ("modular", certify, "scaled_points", raising),
    ("exact", certify, "dump_json", unstable_json),
]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    assert sorted(names) == sorted(run.WORKLOADS), names
    targets = [(owner, attr) for owner, attr, _, _ in tracing.targets()]
    originals = [owner.__dict__[attr] for owner, attr in targets]
    results = {}
    for name in names:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(name, trace)
            missing = {m["name"] for m in spec[key]} - set(result.metrics)
            assert not missing, f"{name} trace={trace} lacks {missing}"
            assert not result.failures, result.failures
            if trace and name != "asymptotic":
                share = result.metrics["trace.self_share"]
                assert share > 0.95, f"{name}: layers cover only {share:.3f}"
            results[name, trace] = result
            print(f"ok   {name:10s} trace={int(trace)} "
                  f"{result.attempted} operations")
    assert all(owner.__dict__[attr] is fn
               for (owner, attr), fn in zip(targets, originals)), \
        "tracing left an attribute rebound"

    base = results["modular", False].to_json()
    other = json.loads(json.dumps(base))
    other["env"]["backend"] = "compiled"
    try:
        compare.compare([base], [other])
    except compare.Incomparable:
        print("ok   compare refuses results from different kernel backends")
    else:
        raise AssertionError("compare accepted results from different backends")

    for name, owner, attr, make_wrong in PLANTED:
        with planted(owner, attr, make_wrong):
            result = measure(name)
        assert result.fail_ratio > 0, f"planted {attr} went unnoticed on {name}"
        print(f"ok   planted {attr} on {name}: fail_ratio {result.fail_ratio:.3f}")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
