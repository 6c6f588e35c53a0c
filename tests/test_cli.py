"""End-to-end tests of the command-line interface and its exit codes."""

import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from seshadri import certify, dissection
from seshadri import oracle
from seshadri.cli import run
from seshadri.geometry import AffineForm, ConvexPolygon, cut_polygon
from seshadri.lattice import LatticeSet, MultiplicitySpec
from seshadri.oracle import GenericPointSet, system_dimension_exact, system_dimension_modp
from test_canonical_json import _dump_json_reference
from test_certify import BAD_CHAINS, _p9

BUILTIN = "builtin:eckl10"
README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
SYNOPSIS = re.search(r"## Command line\n\n```\n(.*?)```", README, re.S)[1].splitlines()


def test_bound_prints_ratio(capsys):
    assert run(["bound", "--dissection", BUILTIN]) == 0
    assert capsys.readouterr().out == "4/13\n"


def test_builtin_round_trip(tmp_path, capsys):
    path = tmp_path / "d.json"
    assert run(["builtin", "--name", "eckl10", "--out", str(path)]) == 0
    assert run(["bound", "--dissection", str(path)]) == 0
    from_file = capsys.readouterr().out
    assert run(["bound", "--dissection", BUILTIN]) == 0
    assert capsys.readouterr().out == from_file


def test_validate_ok(capsys):
    assert run(["validate", "--dissection", BUILTIN]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True


def test_validate_refutes_tampered_file(tmp_path, capsys):
    path = tmp_path / "d.json"
    run(["builtin", "--name", "eckl10", "--out", str(path)])
    capsys.readouterr()
    data = json.loads(path.read_text())
    data["final"] = data["region"]  # overlap: areas can no longer match
    path.write_text(json.dumps(data))
    assert run(["validate", "--dissection", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_verify_exit_codes(capsys):
    assert run(["verify", "--dissection", BUILTIN, "--m", "3/10"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["overall"] is True
    assert len(report["per_polygon"]) == 10
    assert run(["verify", "--dissection", BUILTIN, "--m", "4/13"]) == 1


def test_rational_parsing_is_strict(capsys):
    assert run(["verify", "--dissection", BUILTIN, "--m", "0.31"]) == 2
    assert run(["verify", "--dissection", BUILTIN, "--m", "-1/13"]) == 2


def test_unknown_builtin_and_missing_file(capsys):
    assert run(["bound", "--dissection", "builtin:nope"]) == 2
    assert run(["bound", "--dissection", "/does/not/exist.json"]) == 2


def test_malformed_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"name": "x"}')
    assert run(["bound", "--dissection", str(path)]) == 2


def test_certify_writes_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    code = run(["certify", "--dissection", BUILTIN, "--n", "13",
                "--oracle", "modular", "--seed", "0", "--out", str(out)])
    assert code == 0
    cert = json.loads(out.read_text())
    assert cert["scale"] == 13 and cert["degree"] == 13
    assert cert["min_ratio"] == "3/13"
    assert len(cert["per_polygon"]) == 10
    assert cert["per_polygon"][0]["oracle"]["non_special"] is True


def test_certify_refuted_at_tiny_scale(capsys):
    assert run(["certify", "--dissection", BUILTIN, "--n", "1"]) == 1
    assert "refuted" in capsys.readouterr().err


@pytest.mark.parametrize("n", ["0", "-3"])
def test_certify_refuses_a_scale_below_one(n, capsys):
    assert run(["certify", "--dissection", BUILTIN, "--n", n]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: scale must be a positive integer\n"


def test_certify_scale_guardrail(capsys):
    t0 = time.perf_counter()
    assert run(["certify", "--dissection", BUILTIN, "--n", "5000",
                "--oracle", "none"]) == 3
    assert time.perf_counter() - t0 < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "n = 5000" in captured.err and "SESHADRI_MAX_CELLS" in captured.err


def test_certify_determinism(capsys):
    argv = ["certify", "--dissection", BUILTIN, "--n", "13",
            "--oracle", "modular", "--seed", "7"]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    assert capsys.readouterr().out == first


def test_oracle_subcommand(tmp_path, capsys):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "D": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]],
        "multiplicities": [3],
        "seed": 0,
    }))
    assert run(["oracle", "--system", str(system), "--mode", "exact"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["non_special"] is True and verdict["actual_dimension"] == -1
    assert run(["oracle", "--system", str(system), "--mode", "modular"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["method"] == "modular"

    special = tmp_path / "special.json"
    special.write_text(json.dumps({
        "D": [[0, 0], [1, 0], [2, 0]],
        "multiplicities": [2],
        "seed": 0,
    }))
    assert run(["oracle", "--system", str(special), "--mode", "exact"]) == 1


def test_oracle_explicit_points(tmp_path, capsys):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "D": [[0, 0], [1, 0], [0, 1]],
        "multiplicities": [1, 1, 1],
        "points": [["0", "0"], ["1", "0"], ["0", "1"]],
    }))
    assert run(["oracle", "--system", str(system), "--mode", "exact"]) == 0
    assert json.loads(capsys.readouterr().out)["actual_dimension"] == -1


def test_oracle_points_read_as_in_dissection_files(tmp_path, capsys):
    # JSON integers are rationals, as in dissection files; floats and
    # booleans are refused naming the point.
    system = {"D": [[0, 0], [1, 0], [0, 1], [1, 1]], "multiplicities": [1, 2]}
    outcomes = []
    for points in ([["1", "2"], ["-3", "4"]], [[1, 2], [-3, 4]]):
        outcomes.append((_oracle_on(tmp_path, dict(system, points=points)),
                         capsys.readouterr().out))
    assert outcomes[0] == outcomes[1] and outcomes[0][1]
    for bad in (0.5, True):
        code = _oracle_on(tmp_path, dict(system, points=[["1", "2"], ["3", bad]]))
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "point 2" in captured.err and repr(bad) in captured.err


_ZERO_DENSITIES = """
import sys
import seshadri.reorder as reorder
from seshadri.cli import run

real = reorder._level_decomposition

def no_density(f):
    levels, masses, densities, units = real(f)
    return levels, masses, tuple(0 for _ in densities), units

reorder._level_decomposition = no_density
sys.exit(run(["bound", "--dissection", "builtin:eckl10"]))
"""


def test_internal_error_is_not_refuted():
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", _ZERO_DENSITIES],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(root / "src")})
    assert proc.returncode == 4, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr.startswith("internal error: RuntimeError: rearrangement")


def test_oracle_guardrail_exit_code(tmp_path, monkeypatch):
    monkeypatch.setenv("SESHADRI_MAX_CELLS", "8")
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "D": [[0, 0], [2, 1], [1, 2]],
        "multiplicities": [2],
        "seed": 0,
    }))
    # no staircase (three columns and three rows of one point each): B is
    # 3x3, of full rank mod 2
    for mode in ("exact", "modular"):
        assert run(["oracle", "--system", str(system), "--mode", mode]) == 3
    monkeypatch.setenv("SESHADRI_MAX_CELLS", "9")
    for mode in ("exact", "modular"):
        assert run(["oracle", "--system", str(system), "--mode", mode]) == 0


def test_oracle_huge_multiplicity_guardrail_both_modes(tmp_path, monkeypatch, capsys):
    def refuse(*_args):
        raise AssertionError("a row was built or ranked")
    # 2 * 10^8 rows would exhaust memory, so building any is a failure
    monkeypatch.setattr(oracle, "_condition_rows", refuse)
    monkeypatch.setattr(oracle, "modrank", refuse)
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"D": [[0, 0], [1, 0], [2, 0]],
                                  "multiplicities": [20000]}))
    for mode in ("exact", "modular"):
        t0 = time.perf_counter()
        assert run(["oracle", "--system", str(system), "--mode", mode]) == 3
        assert time.perf_counter() - t0 < 1.0
        assert "200010000x3 point-free matrix" in capsys.readouterr().err


def test_oracle_refuses_exact_entries_of_many_words(tmp_path, monkeypatch, capsys):
    # 2x2, but x^(10^7) at the coordinate 100000, of 17 bits, is about
    # 1.7 * 10^8 bits: each of the four entries is charged 2656250 words,
    # so the exact mode refuses before a row is built; the modular mode
    # reduces every power mod its prime and answers at its own points
    system = {"D": [[0, 0], [10**7, 0]], "multiplicities": [1, 1]}
    real = oracle._condition_rows

    def refuse(*_args):
        raise AssertionError("a row was built")
    monkeypatch.setattr(oracle, "_condition_rows", refuse)
    t0 = time.perf_counter()
    assert _oracle_on(tmp_path, dict(system, points=[[1, 1], [100000, 3]])) == 3
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err == (
        "guardrail: 2x2 exact matrix of 2656250-word entries exceeds the cell cap; "
        "set SESHADRI_MAX_CELLS\n")
    monkeypatch.setattr(oracle, "_condition_rows", real)
    assert _oracle_on(tmp_path, system, "modular") == 0


def test_certify_exact_at_208_matches_modular(capsys):
    """The staircase identity decides every witness in both modes, so
    exact mode certifies what modular mode does, although a rational
    2080x2080 matrix would exceed the cell cap, and the verdicts differ
    only in their method."""
    certs = {}
    for mode in ("exact", "modular"):
        assert run(["certify", "--dissection", BUILTIN, "--n", "208",
                    "--oracle", mode]) == 0
        certs[mode] = json.loads(capsys.readouterr().out)
    for c in certs.values():
        del c["oracle_mode"]
        for row in c["per_polygon"]:
            assert row["oracle"]["non_special"] and row["oracle"]["prime"] is None
            del row["oracle"]["method"]
    assert certs["exact"] == certs["modular"]


def test_oracle_multi_point_guardrail_both_modes(tmp_path, capsys):
    system = {"D": [[a, b] for a in range(60) for b in range(60)],
              "multiplicities": [40, 40, 40]}
    for mode, points in (("exact", {"points": [[1, 1], [1, 2], [2, 1]]}), ("modular", {})):
        t0 = time.perf_counter()
        assert _oracle_on(tmp_path, dict(system, **points), mode) == 3
        assert time.perf_counter() - t0 < 1.0
        assert f"2460x3600 {mode} matrix" in capsys.readouterr().err


def test_render_svg_structure(tmp_path):
    out = tmp_path / "d.svg"
    assert run(["render", "--dissection", BUILTIN, "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<path") == 10
    assert svg.count("<line") == 9
    assert svg.count("<text") == 19
    assert 'stroke-dasharray' in svg


def test_render_no_labels(tmp_path):
    out = tmp_path / "d.svg"
    assert run(["render", "--dissection", BUILTIN, "--out", str(out),
                "--no-labels"]) == 0
    assert out.read_text().count("<text") == 0


def _simplex_cut_by(name, r0):
    """The simplex peeled once, by the cut r0 + x + y."""
    cut = AffineForm(r0, 1, 1)
    peeled, final = cut_polygon(dissection.SIMPLEX, cut)
    return dissection.Dissection(name, (dissection.CutStep(cut, peeled),), final)


@pytest.mark.parametrize("region, r0", [
    ([["0", "0"], ["1/2", "0"], ["0", "1/2"]], Fraction(-1, 4)),
    ([["0", "0"], ["2", "0"], ["0", "2"]], -1),
], ids=["half simplex", "doubled simplex"])
def test_region_other_than_the_simplex_refused(region, r0, tmp_path, capsys):
    """A file whose region is not the simplex, though its pieces are the
    ones its cut peels off that region, is refused at load by every command
    that reads a dissection: the scaled points of a smaller region miss
    some degree-n monomials, and those of a larger one include exponents
    that are none."""
    cut = AffineForm(r0, 1, 1)
    peeled, final = cut_polygon(ConvexPolygon.from_json(region), cut)
    path = tmp_path / "region.json"
    path.write_text(dissection.dump_json({"name": "region", "region": region,
                                          "final": final.to_json(),
                                          "steps": [{"cut": cut.to_json(),
                                                     "polygon": peeled.to_json()}]}))
    out = tmp_path / "d.svg"
    for argv in (["validate"], ["bound"], ["verify", "--m", "1/8"],
                 ["certify", "--n", "8", "--oracle", "exact"], ["render", "--out", str(out)]):
        assert run([argv[0], "--dissection", str(path), *argv[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "region" in captured.err and "is not the standard simplex" in captured.err
    assert not out.exists()


def test_render_labels_only_the_builtin(tmp_path):
    builtin = tmp_path / "eckl10.json"
    assert run(["builtin", "--name", "eckl10", "--out", str(builtin)]) == 0
    # a valid dissection of the simplex, not eckl10, that only borrows the name
    impostor = tmp_path / "impostor.json"
    impostor.write_text(dissection.dump_json(dissection.dissection_to_json(
        _simplex_cut_by("eckl10", Fraction(-1, 2)))))
    for path, labels in ((builtin, 19), (impostor, 0)):
        out = tmp_path / "d.svg"
        assert run(["render", "--dissection", str(path), "--out", str(out)]) == 0
        assert out.read_text().count("<text") == labels


def test_render_canvas_guardrail(tmp_path):
    out = tmp_path / "d.svg"
    assert run(["render", "--dissection", BUILTIN, "--out", str(out),
                "--size", "50"]) == 2


def test_render_determinism(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    run(["render", "--dissection", BUILTIN, "--out", str(a)])
    run(["render", "--dissection", BUILTIN, "--out", str(b)])
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("command", [["bound"], ["verify", "--m", "3/10"], ["render"]])
def test_unwritable_out_is_invalid_input(command, tmp_path, capsys):
    out = tmp_path / "missing" / "x"
    assert run(command + ["--dissection", BUILTIN, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot write output file: " in captured.err and str(out) in captured.err
    assert "internal error" not in captured.err and not out.parent.exists()


def test_bad_usage_is_exit_two(capsys):
    assert run(["verify", "--dissection", BUILTIN]) == 2   # missing --m
    assert run(["frobnicate"]) == 2


# bad usage: argv, with OUT for a path in a fresh directory, and the item
# the one line on stderr must name
BAD_USAGE = [
    ([], "no command"),
    (["frobnicate"], "'frobnicate'"),
    (["--dissection", BUILTIN], "'--dissection'"),
    (["bound", "--dissection", BUILTIN, "--frob"], "'--frob'"),
    (["bound", "--dissection", BUILTIN, "-x"], "'-x'"),
    (["oracle", "--system", "OUT", "--s", "1"], "'--s'"),
    (["bound", "--dissection"], "--dissection"),
    (["verify", "--dissection", BUILTIN], "--m"),
    (["render", "--dissection", BUILTIN], "--out"),
    (["certify", "--dissection", BUILTIN, "--n", "1.5"], "--n '1.5'"),
    (["certify", "--dissection", BUILTIN, "--n", "13", "--seed", "x"], "--seed 'x'"),
    (["verify", "--dissection", BUILTIN, "--m", "0.31"],
     "--m '0.31': not a rational 'p/q' literal: '0.31'"),
    (["certify", "--dissection", BUILTIN, "--n", "13", "--oracle", "nope"], "--oracle 'nope'"),
    (["oracle", "--system", "OUT", "--mode", "bogus"], "--mode 'bogus'"),
    (["render", "--dissection", BUILTIN, "--out", "OUT", "--no-labels=x"], "--no-labels"),
    (["render", "--dissection", BUILTIN, "--out", "OUT", "--no-labels", "x"], "'x'"),
    (["bound", "--dissection", BUILTIN, "extra"], "'extra'"),
]


@pytest.mark.parametrize("argv, item", BAD_USAGE,
                         ids=[" ".join(argv) or "(none)" for argv, _ in BAD_USAGE])
def test_bad_usage_names_the_item(argv, item, tmp_path, capsys):
    out = tmp_path / "out"
    assert run([str(out) if a == "OUT" else a for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert item in captured.err


@pytest.mark.parametrize("spaced, joined", [
    (["verify", "--dissection", BUILTIN, "--m", "3/10"],
     ["verify", f"--dissection={BUILTIN}", "--m=3/10"]),
    (["certify", "--dissection", BUILTIN, "--n", "13", "--oracle", "none", "--seed", "2"],
     ["certify", f"--dissection={BUILTIN}", "--n=13", "--oracle=none", "--seed=2"]),
    (["render", "--dissection", BUILTIN, "--out", "OUT", "--size", "200", "--no-labels"],
     ["render", f"--dissection={BUILTIN}", "--out=OUT", "--size=200", "--no-labels"]),
], ids=lambda argv: argv[0])
def test_an_option_and_its_value_may_be_joined_by_equals(spaced, joined, tmp_path, capsys):
    out = tmp_path / "out"

    def outputs(argv):
        code = run([a.replace("OUT", str(out)) for a in argv])
        return code, capsys.readouterr().out, out.read_text() if out.exists() else None

    assert outputs(joined) == outputs(spaced)


def test_prefixes_and_the_last_value_win(capsys):
    assert run(["certify", "--dissection", BUILTIN, "--n", "13", "--oracle", "none",
                "--seed", "-1"]) == 0
    expected = capsys.readouterr().out
    assert json.loads(expected)["seed"] == -1
    assert run(["certify", "--dis", "builtin:nope", "--n", "26", "--or", "modular",
                "--dissection", BUILTIN, "--n", "13", "--oracle=none", "--se", "5",
                "--seed=-1"]) == 0
    assert capsys.readouterr().out == expected


def test_a_value_is_the_next_item_taken_verbatim(capsys):
    # a negative m is the command's refusal, not a missing value
    assert run(["verify", "--dissection", BUILTIN, "--m", "-3/13"]) == 2
    assert capsys.readouterr() == ("", "error: m must be positive\n")
    assert run(["bound", "--dissection", "--out"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot read dissection file" in captured.err


def test_help_lists_every_command_and_option(capsys):
    for flag in ("--help", "-h", "--he"):
        assert run([flag]) == 0
        top = capsys.readouterr()
        assert top.err == "" and all(line in top.out.splitlines() for line in SYNOPSIS)
    assert [line.split()[1] for line in SYNOPSIS] == [
        "builtin", "validate", "verify", "bound", "certify", "oracle", "render"]
    for line in SYNOPSIS:
        command, options = line.split()[1], re.findall(r"--[a-z-]+", line)
        assert options
        for argv in ([command, "--help"], [command, "-h"], [command, "--he"],
                     [command, "--out", "x", "--help", "--frob"]):
            assert run(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            assert captured.out.startswith(f"usage: seshadri {command} ")
            assert all(option in captured.out for option in options)


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"], ["render", "-h"]],
                         ids=" ".join)
def test_help_returns_instead_of_exiting(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        pytest.fail(f"run({argv}) raised SystemExit({exc.code})")
    assert code == 0 and capsys.readouterr().out


def test_oracle_composite_modulus_refused(tmp_path, capsys):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "D": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]],
        "multiplicities": [2, 2],
        "seed": 1,
    }))
    for modulus in ("15", "21", "35"):
        assert run(["oracle", "--system", str(system), "--mode", "modular",
                    "--prime", modulus]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and modulus in captured.err


def test_oracle_modular_refuses_explicit_points(tmp_path, capsys):
    # The line y = 0 passes through all three collinear points, so at these
    # points the linear system {1, x, y} has dimension 0, not the expected -1.
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({
        "D": [[0, 0], [1, 0], [0, 1]],
        "multiplicities": [1, 1, 1],
        "points": [["0", "0"], ["1", "0"], ["2", "0"]],
    }))
    assert run(["oracle", "--system", str(system), "--mode", "exact"]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["non_special"] is False and verdict["actual_dimension"] == 0
    assert run(["oracle", "--system", str(system), "--mode", "modular"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'points'" in captured.err and "--mode exact" in captured.err


def test_oracle_honours_an_empty_points_list(tmp_path, capsys):
    # an explicit empty list states zero points: it is not a request to
    # rank at seeded random points
    system = {"D": [[0, 0], [1, 0], [0, 1], [2, 0]], "multiplicities": [2, 1],
              "points": []}
    for mode, shown in (("exact", "0 points for 2 multiplicities"),
                        ("modular", "honoured only by --mode exact")):
        assert _oracle_on(tmp_path, system, mode) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and shown in captured.err
    # a single point for the same system is refused the same way
    assert _oracle_on(tmp_path, dict(system, points=[[1, 2]])) == 2
    assert "1 points for 2 multiplicities" in capsys.readouterr().err


def test_oracle_checks_the_points_before_the_cell_cap(tmp_path, capsys):
    # a 3x2 matrix of huge entries would exceed the cap, but three
    # multiplicities at two points are refused first, as bad input
    system = {"D": [[0, 0], [100000000, 0]], "multiplicities": [1, 1, 1],
              "points": [[1, 1], [2, 2]]}
    assert _oracle_on(tmp_path, system) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "2 points for 3 multiplicities" in captured.err
    assert "cell cap" not in captured.err


def _oracle_on(tmp_path, system, mode="exact"):
    path = tmp_path / "sys.json"
    path.write_text(json.dumps(system))
    return run(["oracle", "--system", str(path), "--mode", mode])


def test_oracle_refuses_non_integer_exponents(tmp_path, capsys):
    # Truncating with int() would rank (1.5, 0) as (1, 0) and report this
    # system non-special; it must be refused instead.
    for bad, shown in ((1.5, "[1.5, 0]"), (True, "[True, 0]")):
        system = {"D": [[0, 0], [bad, 0], [0, 1]], "multiplicities": [1]}
        for mode in ("exact", "modular"):
            assert _oracle_on(tmp_path, system, mode) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert shown in captured.err and "integer" in captured.err


def test_oracle_on_two_points_far_apart_in_beta(tmp_path, capsys):
    # the staircase check and B visit the rows D covers, never the rows between
    system = {"D": [[0, 0], [1, 10**18]], "multiplicities": [1]}
    for mode in ("exact", "modular"):
        assert _oracle_on(tmp_path, system, mode) == 0
        assert json.loads(capsys.readouterr().out)["non_special"] is True


def test_oracle_on_the_empty_set(tmp_path, capsys):
    # no monomial, so no condition: dimension -1 and rank 0 in both modes;
    # a one-point system's B has rows but no column, a full rank of 0 mod
    # 2, which its verdict records with prime 2
    for multiplicities in ([2], [1, 1]):
        for mode in ("exact", "modular"):
            system = {"D": [], "multiplicities": multiplicities}
            if mode == "exact" and len(multiplicities) > 1:
                system["points"] = [[1, 2], [3, 4]]
            assert _oracle_on(tmp_path, system, mode) == 0, (multiplicities, mode)
            verdict = json.loads(capsys.readouterr().out)
            assert verdict["actual_dimension"] == verdict["expected_dimension"] == -1
            assert verdict["rank"] == 0 and verdict["non_special"] is True
            if len(multiplicities) == 1:
                assert verdict["prime"] == 2 and verdict["caveat"] == oracle._GF2_FULL


def test_oracle_names_a_malformed_point(tmp_path, capsys):
    for D, shown in (([[0, 0, 0], [1, 0]], "point 1 [0, 0, 0] is not a list of 2 items"),
                     (["12"], "point 1 '12' is not a list of 2 items")):
        for mode in ("exact", "modular"):
            assert _oracle_on(tmp_path, {"D": D, "multiplicities": [1]}, mode) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and shown in captured.err


def test_oracle_names_a_repeated_point(tmp_path, capsys):
    # points are compared as rationals, so "2/4" repeats "1/2"
    system = {"D": [[0, 0], [1, 0], [0, 1]], "multiplicities": [1, 1, 1]}
    for points, shown in (
            ([["1/2", "1/3"], ["2", "5"], ["1/2", "1/3"]],
             "malformed system file: point 3 ['1/2', '1/3'] repeats point 1"),
            ([["1/2", "1/3"], ["2/4", "2/6"], ["2", "5"]],
             "malformed system file: point 2 ['2/4', '2/6'] repeats point 1")):
        for mode in ("exact", "modular"):
            assert _oracle_on(tmp_path, dict(system, points=points), mode) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and shown in captured.err


def test_oracle_names_a_repeated_exponent(tmp_path, capsys):
    # LatticeSet drops a repeat, so the verdict would speak of a smaller D
    # than the file states
    for D, shown in (([[0, 0], [1, 0], [0, 1], [0, 0]], "point 4 [0, 0] repeats point 1"),
                     ([[5, 0], [2, 3], [2, 3], [5, 0]], "point 3 [2, 3] repeats point 2")):
        for mode in ("exact", "modular"):
            assert _oracle_on(tmp_path, {"D": D, "multiplicities": [1]}, mode) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: malformed system file: {shown}\n"


def test_oracle_refuses_an_unknown_key(tmp_path, capsys):
    # a misspelt "points" was ignored, and the system ranked at seeded points
    good = {"D": [[0, 0], [1, 0], [0, 1]], "multiplicities": [1, 1]}
    for key in ("point", "Seed", "d"):
        for mode in ("exact", "modular"):
            assert _oracle_on(tmp_path, dict(good, **{key: [[1, 2], [3, 4]]}), mode) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"malformed system file: unknown key {key!r}" in captured.err
    for extra, mode in (({}, "modular"), ({"seed": 3}, "modular"),
                        ({"points": [[1, 2], [3, 4]]}, "exact"),
                        ({"points": [[1, 2], [3, 4]], "seed": 3}, "exact")):
        assert _oracle_on(tmp_path, dict(good, **extra), mode) == 0


def test_oracle_exact_refuses_prime(tmp_path, capsys):
    # the exact mode ranks over Q and used to ignore --prime, even 4
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"D": [[0, 0], [2, 4], [4, 2]], "multiplicities": [2]}))
    for prime in ("4", "97"):
        for mode in ([], ["--mode", "exact"]):
            assert run(["oracle", "--system", str(path), "--prime", prime] + mode) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err == (
                "error: --prime is honoured only by --mode modular; "
                "--mode exact ranks over the rationals\n")
    assert run(["oracle", "--system", str(path), "--mode", "modular", "--prime", "97"]) == 0
    assert '"prime": 97,' in capsys.readouterr().out


def test_oracle_exact_refuses_seed(tmp_path, capsys):
    # the exact mode draws no point, and used to ignore --seed
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"D": [[0, 0], [2, 4], [4, 2]], "multiplicities": [2]}))
    for mode in ([], ["--mode", "exact"]):
        assert run(["oracle", "--system", str(path), "--seed", "4"] + mode) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "error: --seed is honoured only by --mode modular; "
            "--mode exact ranks over the rationals\n")
    assert run(["oracle", "--system", str(path), "--mode", "modular", "--seed", "4"]) == 0


def test_oracle_reads_system_file_fields_strictly(tmp_path, capsys):
    # Each of these used to fail inside iteration or indexing, naming no
    # field ("'int' object is not iterable"), or, for a string D, read it
    # as characters.
    good = {"D": [[0, 0], [1, 0], [0, 1]], "multiplicities": [1]}
    cases = [(dict(good, D=5), "D 5 is not a list"),
             (dict(good, D="0010"), "D '0010' is not a list"),
             (dict(good, multiplicities=5), "multiplicities 5 is not a list"),
             (dict(good, multiplicities="1"), "multiplicities '1' is not a list"),
             (dict(good, points=5), "points 5 is not a list"),
             ([1, 2], "system file [1, 2] is not an object")]
    for system, shown in cases:
        assert _oracle_on(tmp_path, system) == 2, system
        captured = capsys.readouterr()
        assert captured.out == "" and shown in captured.err
    assert _oracle_on(tmp_path, good) == 0


def test_oracle_refuses_non_integer_multiplicities(tmp_path, capsys):
    for bad in (1.9, True, "2"):
        system = {"D": [[0, 0], [1, 0], [0, 1]], "multiplicities": [bad]}
        assert _oracle_on(tmp_path, system) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"multiplicity {bad!r}" in captured.err


def test_oracle_refuses_non_integer_seed(tmp_path, capsys):
    # the file's seed is read in both modes, though only the modular mode
    # draws points with it
    for bad in (1.5, False, "3"):
        for mode in ("exact", "modular"):
            system = {"D": [[0, 0], [1, 0], [0, 1]], "multiplicities": [1, 1],
                      "seed": bad}
            assert _oracle_on(tmp_path, system, mode) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and f"seed {bad!r}" in captured.err
    system["seed"] = 4
    assert _oracle_on(tmp_path, system, "modular") == 0
    assert _oracle_on(tmp_path, dict(system, points=[[1, 2], [3, 4]])) == 0


def _one_point_system(tmp_path):
    system = tmp_path / "sys.json"
    system.write_text(json.dumps({"D": [[0, 0], [1, 0], [0, 1]],
                                  "multiplicities": [1]}))
    return str(system)


def test_cell_cap_must_be_an_integer(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SESHADRI_MAX_CELLS", "abc")
    assert run(["oracle", "--system", _one_point_system(tmp_path),
                "--mode", "exact"]) == 2
    err = capsys.readouterr().err
    assert "SESHADRI_MAX_CELLS" in err and "'abc'" in err


def test_cell_cap_must_be_positive(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SESHADRI_MAX_CELLS", "-5")
    assert run(["certify", "--dissection", BUILTIN, "--n", "13",
                "--oracle", "exact"]) == 2
    err = capsys.readouterr().err
    assert "SESHADRI_MAX_CELLS" in err and "'-5'" in err


def _edited_builtin(tmp_path, edit):
    """Path of eckl10's dissection file after ``edit(data)``."""
    data = dissection.dissection_to_json(dissection.builtin_dissection_eckl10())
    edit(data)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_integer_cut_coefficient_accepted(tmp_path, capsys):
    def edit(data):
        data["steps"][0]["cut"]["r1"] = 1
        data["region"][1][0] = 1
    assert run(["bound", "--dissection", _edited_builtin(tmp_path, edit)]) == 0
    assert capsys.readouterr().out == "4/13\n"


def test_bool_coordinate_refused(tmp_path, capsys):
    def edit(data):
        data["region"][1][0] = True
    path = _edited_builtin(tmp_path, edit)
    for command in ("validate", "bound"):
        assert run([command, "--dissection", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "region" in captured.err


def test_string_vertex_refused(tmp_path, capsys):
    # "00" is not the vertex (0, 0): a vertex is a list of two rationals
    def edit(data):
        data["region"] = ["00", ["1", "0"], "01"]
    assert run(["validate", "--dissection", _edited_builtin(tmp_path, edit)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "region" in captured.err and "vertex 1 '00' is not a list of 2 items" in captured.err


@pytest.mark.parametrize("name", sorted(BAD_CHAINS))
def test_validate_names_a_polygon_that_is_no_convex_chain(name, tmp_path, capsys):
    chain, fault = BAD_CHAINS[name]
    path = tmp_path / "d.json"
    path.write_text(json.dumps(_p9(chain)))
    assert run(["validate", "--dissection", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "step 9 polygon" in captured.err and fault in captured.err


def _without(key):
    return lambda data: {k: v for k, v in data.items() if k != key}


def _first_step(step):
    return lambda data: dict(data, steps=[step] + data["steps"][1:])


@pytest.mark.parametrize("edit,shown", [
    (lambda data: [data], "malformed dissection file: dissection [{"),
    (lambda data: dict(data, steps="P1 P2"), "steps 'P1 P2' is not a list"),
    (lambda data: dict(data, steps={"cut": {}}), "steps {'cut': {}} is not a list"),
    (_first_step([["0", "0"], ["4/13", "0"]]),
     "step 1 [['0', '0'], ['4/13', '0']] is not an object"),
    (_first_step({"cut": {"r0": "-4/13", "r1": "1", "r2": "1"}}), "step 1 has no 'polygon'"),
    (_first_step({"cut": {"r1": "1", "r2": "1"}, "polygon": []}),
     "step 1 cut {'r1': '1', 'r2': '1'} is not valid: cut has no 'r0'"),
    (_without("final"), "dissection has no 'final'"),
    (_without("name"), "dissection has no 'name'"),
], ids=["top-level list", "steps string", "steps object", "step list", "step without polygon",
        "cut without r0", "no final", "no name"])
def test_validate_names_the_malformed_structure(edit, shown, tmp_path, capsys):
    path = tmp_path / "d.json"
    builtin = dissection.builtin_dissection_eckl10()
    path.write_text(json.dumps(edit(dissection.dissection_to_json(builtin))))
    assert run(["validate", "--dissection", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and shown in captured.err


def test_bool_cut_coefficient_refused(tmp_path, capsys):
    def edit(data):
        data["steps"][2]["cut"]["r2"] = False
    assert run(["bound", "--dissection", _edited_builtin(tmp_path, edit)]) == 2
    err = capsys.readouterr().err
    assert "step 3 cut" in err and "False" in err


def test_non_string_name_refused(tmp_path, capsys):
    def edit(data):
        data["name"] = 10
    assert run(["validate", "--dissection", _edited_builtin(tmp_path, edit)]) == 2
    assert "name" in capsys.readouterr().err


def test_oracle_modular_records_the_field_that_decided(tmp_path, capsys):
    # A staircase, even one of rank 1 mod 2, is decided by its determinant
    # identity, over Q with no prime; on a set that is no staircase, full
    # rank mod 2 decides without the requested prime, and a system whose
    # rank mod 2 is short is ranked mod that prime instead.
    staircase = {"D": [[0, 0], [2, 0], [0, 2]], "multiplicities": [2]}
    full = {"D": [[0, 0], [2, 1], [1, 2]], "multiplicities": [2]}
    short = {"D": [[0, 0], [2, 4], [4, 2]], "multiplicities": [2]}
    for system, prime in ((staircase, "null"), (full, 2), (short, 97)):
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(system))
        assert run(["oracle", "--system", str(path), "--mode", "modular",
                    "--prime", "97"]) == 0
        out = capsys.readouterr().out
        assert f'"prime": {prime},' in out
        verdict = json.loads(out)
        assert verdict["non_special"] is True and verdict["rank"] == 3


def test_oracle_default_prime_is_stated_once(tmp_path, capsys):
    # --prime left out means the oracle's default prime, resolved when the
    # oracle runs: the same bytes as stating it, on a one-point system
    # ranked mod the prime and on two points placed at random points
    default = "2305843009213693951"
    assert int(default) == oracle.MODULAR_DEFAULT_PRIME
    path = tmp_path / "sys.json"
    for system in ({"D": [[0, 0], [2, 4], [4, 2]], "multiplicities": [2]},
                   {"D": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1]],
                    "multiplicities": [1, 2], "seed": 5}):
        path.write_text(json.dumps(system))
        argv = ["oracle", "--system", str(path), "--mode", "modular"]
        outs = []
        for extra in ([], ["--prime", default]):
            assert run(argv + extra) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1] and f'"prime": {default},' in outs[0]


def test_oracle_small_prime_guards_only_random_points(tmp_path, capsys):
    # A one-point system is ranked point-free, so a prime below its
    # exponents is no reason to refuse it; two points are placed at random
    # points mod the prime, where the derivative factors must survive.
    path = tmp_path / "sys.json"
    system = {"D": [[0, 0], [3, 0], [0, 1]], "multiplicities": [1]}
    path.write_text(json.dumps(system))
    assert run(["oracle", "--system", str(path), "--mode", "modular",
                "--prime", "3"]) == 0
    out = capsys.readouterr().out
    assert '"prime": 2,' in out and json.loads(out)["non_special"] is True
    path.write_text(json.dumps(dict(system, multiplicities=[1, 1])))
    assert run(["oracle", "--system", str(path), "--mode", "modular",
                "--prime", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "derivative factor" in captured.err


def test_oracle_refuses_more_points_than_a_small_prime_leaves(tmp_path):
    # Mod 3 only 4 points have both coordinates nonzero, so five distinct
    # random points are never drawn: refused before the draw, in a child
    # process that a timeout ends if the draw starts.
    path = tmp_path / "sys.json"
    path.write_text(json.dumps({"D": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]],
                                "multiplicities": [1] * 5}))
    argv = [sys.executable, "-m", "seshadri.cli", "oracle", "--system", str(path),
            "--mode", "modular", "--prime"]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    refused = subprocess.run(argv + ["3"], capture_output=True, text=True, timeout=60, env=env)
    assert refused.returncode == 2 and refused.stdout == ""
    assert ("prime 3 leaves 4 distinct points with nonzero coordinates, "
            "fewer than the system's 5 points") in refused.stderr
    answered = subprocess.run(argv + ["5"], capture_output=True, text=True, timeout=60, env=env)
    assert answered.returncode in (0, 1), answered.stderr
    assert json.loads(answered.stdout)["prime"] == 5


_SYSTEMS = {
    "one point": {"D": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1], [0, 2]],
                  "multiplicities": [3], "seed": 0},
    "three points": {"D": [[0, 0], [1, 0], [0, 1], [2, 0], [1, 1]],
                     "multiplicities": [1, 1, 2], "seed": 5,
                     "points": [[1, 2], ["-1/3", 0], [4, 1]]},
}


def _system(name, mode):
    """The system file ``name`` as ``mode`` takes it: only exact takes points."""
    system = dict(_SYSTEMS[name])
    if mode == "modular":
        system.pop("points", None)
    return system


def _in_process(argv):
    """The value each byte-identity command prints, computed in process."""
    dis = dissection.builtin_dissection_eckl10()
    command = argv[0]
    if command == "builtin":
        return dissection.dissection_to_json(dis)
    if command == "validate":
        return dissection.validate_dissection(dis).to_json()
    if command == "verify":
        return dissection.verify_asymptotic(dis, Fraction(argv[-1])).to_json()
    if command == "certify":
        return certify.finite_certificate(dis, int(argv[4]), argv[6], seed=3).to_json()
    system = _system(argv[2], argv[4])
    D, spec = LatticeSet.from_json(system["D"]), MultiplicitySpec(tuple(system["multiplicities"]))
    if argv[4] == "exact":
        points = GenericPointSet.explicit(system["points"]) if "points" in system else None
        return system_dimension_exact(D, spec, points).to_json()
    return system_dimension_modp(D, spec, seed=system["seed"]).to_json()


@pytest.mark.parametrize("argv", [
    ["builtin", "--name", "eckl10"],
    ["validate", "--dissection", BUILTIN],
    ["verify", "--dissection", BUILTIN, "--m", "3/10"],
    ["verify", "--dissection", BUILTIN, "--m", "4/13"],
    ["certify", "--dissection", BUILTIN, "--n", "13", "--oracle", "none", "--seed", "3"],
    ["certify", "--dissection", BUILTIN, "--n", "26", "--oracle", "modular", "--seed", "3"],
    ["certify", "--dissection", BUILTIN, "--n", "13", "--oracle", "exact", "--seed", "3"],
    ["oracle", "--system", "one point", "--mode", "exact"],
    ["oracle", "--system", "one point", "--mode", "modular"],
    ["oracle", "--system", "three points", "--mode", "exact"],
    ["oracle", "--system", "three points", "--mode", "modular"],
], ids=" ".join)
def test_stdout_is_the_reference_encoding(argv, tmp_path, capsys):
    # Machine output must be byte-identical to json.dumps(indent=2,
    # sort_keys=True) of the same value, whatever the exit code.
    expected = _dump_json_reference(_in_process(argv))
    if argv[0] == "oracle":
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(_system(argv[2], argv[4])))
        argv = [argv[0], "--system", str(path)] + argv[3:]
    assert run(argv) in (0, 1)
    assert capsys.readouterr().out == expected
