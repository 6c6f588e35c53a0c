"""The benchmark's workloads: seeded inputs, operations and answer checks.

Every operation calls the library through module attributes
(``certify.finite_certificate`` and so on) at call time, so the traced
run can rebind those attributes from outside.  An operation returns its
value and its canonical JSON text; the text of every repetition must
match the first one byte for byte.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from seshadri import certify

BOUND = Fraction(4, 13)

Check = Callable[[object, str], Optional[str]]
CliCheck = Callable[[int, str], Optional[str]]


@dataclass(frozen=True)
class CliCommand:
    """One `seshadri` command line and the check of its exit code and stdout."""

    argv: Tuple[str, ...]
    check: CliCheck


class Runner:
    """Runs operations one after another and checks every answer.

    ``op`` times the call, checks the value, and compares the canonical
    text with the first run of the same operation.  A failure is counted
    and described, never raised, so one wrong answer does not hide the
    rest of the run.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []
        self.reference: Dict[tuple, str] = {}
        self.op_times: Dict[str, List[float]] = {}
        self.pass_time = 0.0
        self.tracer = None
        self.matrices: Dict[str, list] = {}

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def op(self, key: tuple, name: str, fn: Callable[[], Tuple[object, str]],
           check: Check):
        self.attempted += 1
        tracer = self.tracer
        t0 = perf_counter()
        try:
            if tracer is None:
                value, text = fn()
            else:
                with tracer.op(name):
                    value, text = fn()
        except Exception as exc:  # a crash is a failed operation, not a stop
            self.fail(f"{key}: {type(exc).__name__}: {exc}")
            return None
        dt = perf_counter() - t0
        self.pass_time += dt
        self.op_times.setdefault(name, []).append(dt)
        err = _checked(check, value, text)
        if self.reference.setdefault(key, text) != text and err is None:
            err = "canonical JSON differs from the first run of this operation"
        if err is not None:
            self.fail(f"{key}: {err}")
        return value

    def cli_check(self, cmd: CliCommand, rc: int, stdout: str) -> None:
        self.attempted += 1
        err = _checked(cmd.check, rc, stdout)
        if err is not None:
            self.fail(f"seshadri {' '.join(cmd.argv)}: {err}")


def _checked(check: Callable, *args) -> Optional[str]:
    """Run a check; output it cannot even parse is a failed answer too."""
    try:
        return check(*args)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"


# --- asymptotic: validation, bound and verification of untrusted files -----

def _nudge(polygon: List[List[str]], i: int, delta: Fraction) -> None:
    """Move vertex i outward, across the chord of its two neighbours.

    The hull then strictly grows, so the piece areas no longer sum to the
    region's area and validation must refuse the copy.
    """
    prev_v, next_v = polygon[i - 1], polygon[(i + 1) % len(polygon)]
    dx = Fraction(next_v[0]) - Fraction(prev_v[0])
    dy = Fraction(next_v[1]) - Fraction(prev_v[1])
    x, y = Fraction(polygon[i][0]), Fraction(polygon[i][1])
    polygon[i] = [str(x + delta * dy), str(y - delta * dx)]


def _ratio_between(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A seeded rational strictly between lo and hi."""
    while True:
        q = rng.randint(40, 400)
        first, last = lo * q // 1 + 1, -(-hi * q // 1) - 1
        if first <= last:
            return Fraction(rng.randint(first, last), q)


def _strata(rng: random.Random, lo: Fraction, hi: Fraction, k: int) -> List[Fraction]:
    """One seeded rational inside each of k equal parts of (lo, hi)."""
    step = (hi - lo) / k
    return [_ratio_between(rng, lo + i * step, lo + (i + 1) * step) for i in range(k)]


class Asymptotic:
    """Dissection files from a JSON round trip of eckl10, a seeded minority
    of them tampered, checked by validate, bound and verify."""

    name = "asymptotic"
    largest = "verify"
    kernel_crosscheck = False
    speed_corrected = True   # a pass takes about 0.2 s of small-Fraction work

    def __init__(self, seed: int, copies: int = 4, m_count: int = 16) -> None:
        rng = random.Random(seed)
        base = certify.dissection_to_json(certify.builtin_dissection_eckl10())
        self.good_text = certify.dump_json(base)
        self.tampered_at = rng.randrange(copies)
        self.copies: List[Tuple[str, bool]] = []
        for i in range(copies):
            if i != self.tampered_at:
                self.copies.append((self.good_text, False))
                continue
            data = json.loads(self.good_text)
            step = rng.choice(data["steps"])
            _nudge(step["polygon"], rng.randrange(len(step["polygon"])),
                   Fraction(1, rng.randint(50, 500)))
            self.tampered_text = certify.dump_json(data)
            self.copies.append((self.tampered_text, True))
        malformed = json.loads(self.good_text)
        vertex = rng.choice(malformed["final"])
        vertex[rng.randrange(2)] = "0.5"
        self.malformed_text = certify.dump_json(malformed)
        # One m in each of equal strata below and above the bound keeps
        # the work per pass nearly independent of the seed; 4/13 itself
        # must be refused, because the bound is strict.
        above = max(1, m_count // 8)
        below = _strata(rng, Fraction(0), BOUND, m_count - above - 1)
        ms = below + _strata(rng, BOUND, Fraction(1, 3), above) + [BOUND]
        self.cli_m = below[-1]
        rng.shuffle(ms)
        self.ms = ms
        self.files: Dict[str, str] = {}

    def run_pass(self, runner: Runner) -> None:
        good = [i for i, (_, bad) in enumerate(self.copies) if not bad]
        for i, (text, tampered) in enumerate(self.copies):
            dis = runner.op(("load", tampered), "load",
                            lambda text=text: _load(text),
                            lambda v, _, t=tampered: _check_load(v, t))
            if dis is None:
                continue
            runner.op(("bound", tampered), "bound",
                      lambda dis=dis: _bound(dis),
                      lambda v, _, t=tampered: _check_bound(v, t))
            if tampered:
                continue
            for m in self.ms[good.index(i)::len(good)]:
                runner.op(("verify", m), "verify",
                          lambda dis=dis, m=m: _verify(dis, m),
                          lambda v, _, m=m: _check_verify(v, m))

    def write_files(self, workdir: Path) -> None:
        for name, text in (("good", self.good_text),
                           ("tampered", self.tampered_text),
                           ("malformed", self.malformed_text)):
            path = workdir / f"{name}.json"
            path.write_text(text, encoding="utf-8")
            self.files[name] = str(path)

    def cli_commands(self, runner: Runner) -> List[CliCommand]:
        report = runner.reference.get(("verify", self.cli_m))
        return [
            CliCommand(("bound", "--dissection", self.files["good"]),
                       lambda rc, out: _expect(rc, 0, out == "4/13\n", out)),
            CliCommand(("verify", "--dissection", self.files["good"],
                        "--m", str(self.cli_m)),
                       lambda rc, out: _expect(rc, 0, out == report, out)),
        ]

    def cli_refusals(self) -> List[CliCommand]:
        return [
            CliCommand(("validate", "--dissection", self.files["tampered"]),
                       lambda rc, out: _expect(rc, 1, not json.loads(out)["ok"], out)),
            CliCommand(("validate", "--dissection", self.files["malformed"]),
                       lambda rc, out: _expect(rc, 2, out == "", out)),
        ]


def _load(text: str):
    dis = certify.dissection_from_json(json.loads(text))
    report = certify.validate_dissection(dis)
    return (dis, report), certify.dump_json(report.to_json())


def _check_load(value, tampered: bool) -> Optional[str]:
    _dis, report = value
    if report.ok == tampered:
        return ("tampered copy was accepted" if tampered
                else f"valid copy was refused: {report.violations}")
    return None


def _bound(dis_report):
    dis, _report = dis_report
    try:
        bound = certify.certified_bound(dis)
    except certify.InvalidDissection:
        return "refused", "refused"
    return bound, str(bound)


def _check_bound(value, tampered: bool) -> Optional[str]:
    expected = "refused" if tampered else BOUND
    return None if value == expected else f"bound {value}, expected {expected}"


def _verify(dis_report, m: Fraction):
    report = certify.verify_asymptotic(dis_report[0], m)
    return report, certify.dump_json(report.to_json())


def _check_verify(report, m: Fraction) -> Optional[str]:
    if report.m != m or report.overall != (m < BOUND):
        return f"verify at m={m} gave overall={report.overall}"
    return None


def _expect(rc: int, want_rc: int, ok: bool, out: str) -> Optional[str]:
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    return None if ok else f"unexpected stdout {out[:200]!r}"


# --- finite certificates: lattice, modular oracle, exact oracle ------------

def check_certificate(data: dict, n: int, mode: str) -> Optional[str]:
    """Check a certificate's JSON: lattice counts, min_ratio, verdicts."""
    rows = data["per_polygon"]
    total = sum(p["lattice_count"] for p in rows)
    if total != (n + 1) * (n + 2) // 2:
        return f"lattice counts sum to {total}, expected {(n + 1) * (n + 2) // 2}"
    if data["min_ratio"] != str(Fraction(min(p["m"] for p in rows), n)):
        return f"min_ratio {data['min_ratio']} is not the least witness m over {n}"
    for p in rows:
        verdict = p["oracle"]
        if mode == "none":
            if verdict is not None:
                return f"P{p['polygon']} has an oracle verdict in mode none"
        elif not verdict or not verdict["non_special"] \
                or verdict["actual_dimension"] != -1:
            return f"P{p['polygon']} verdict {verdict} is not non-special of dimension -1"
    return None


class Certificates:
    """finite_certificate(eckl10, n, mode, seed) at the given scales."""

    def __init__(self, name: str, mode: str, seed: int, ns: Sequence[int],
                 cli_n: int, speed_corrected: bool = False) -> None:
        self.name, self.mode, self.seed = name, mode, seed
        self.ns, self.cli_n = tuple(ns), cli_n
        self.speed_corrected = speed_corrected
        self.largest = f"certify n={max(ns)}"
        self.kernel_crosscheck = mode == "modular"
        self.dis = certify.builtin_dissection_eckl10()

    def _certify(self, n: int):
        cert = certify.finite_certificate(self.dis, n, self.mode, self.seed)
        return cert, certify.dump_json(cert.to_json())

    def run_pass(self, runner: Runner) -> None:
        for n in self.ns:
            cert = runner.op(("certify", n), f"certify n={n}",
                             lambda n=n: self._certify(n),
                             lambda _, text, n=n: check_certificate(json.loads(text), n, self.mode))
            key = f"n={n}"
            if cert is not None and self.mode != "none" and key not in runner.matrices:
                runner.matrices[key] = [
                    [p.m * (p.m + 1) // 2, len(p.witness.subset),
                     p.oracle.rank if p.oracle else None]
                    for p in cert.per_polygon]

    def write_files(self, workdir: Path) -> None:
        pass

    def cli_commands(self, runner: Runner) -> List[CliCommand]:
        expected = runner.reference.get(("certify", self.cli_n))
        n, mode = self.cli_n, self.mode

        def check(rc: int, out: str) -> Optional[str]:
            if rc != 0:
                return f"exit code {rc}, expected 0"
            err = check_certificate(json.loads(out), n, mode)
            if err is None and out != expected:
                err = "stdout differs from the in-process certificate"
            return err

        return [CliCommand(("certify", "--dissection", "builtin:eckl10",
                            "--n", str(n), "--oracle", mode,
                            "--seed", str(self.seed)), check)]

    def cli_refusals(self) -> List[CliCommand]:
        return []


def make(name: str, seed: int):
    """The full-size workload of that name, with inputs drawn from seed."""
    if name == "asymptotic":
        return Asymptotic(seed)
    if name == "lattice":
        # Passes of about 2.5 s of small-Fraction work: the reference loop
        # tracks them.  Modular and exact passes run 5 s and more, exact on
        # big integers, and scaling made their spread worse.
        return Certificates(name, "none", seed, (104, 208), cli_n=104,
                            speed_corrected=True)
    if name == "modular":
        # The CLI command stays well under a second, so that its in-child
        # speed correction holds; n=52 (1.5 s) spread 28% over ten runs.
        return Certificates(name, "modular", seed, (26, 39, 52, 65), cli_n=39)
    if name == "exact":
        return Certificates(name, "exact", seed, (13, 26), cli_n=13)
    raise ValueError(f"unknown workload {name!r}")
