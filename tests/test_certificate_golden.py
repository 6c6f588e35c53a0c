"""Byte-level regression pins for the machine output on eckl10.

Each digest is the sha256 of a canonical text: the JSON of
``finite_certificate(eckl10, n, "none")``, the dissection file written by
``seshadri builtin``, the ``validate`` report, two ``verify`` reports and
the rendered SVG.  A change to the lattice layer (enumeration,
cut-by-cut split, witness selection) or to how the pieces are derived,
checked, scored or drawn that alters any byte changes a digest.

Certificates are pinned four times.  ``GOLDEN_0_7_0`` pins today's
bytes.  ``GOLDEN_0_6_0`` holds the digests recorded in the 0.6.0 layout,
whose rows also stated a ``deviation`` from the certified bound and
whose witness verdicts came from a rank mod 2, then in the mode's field;
:func:`_as_0_6_0` turns a certificate back into that layout, ranking
every witness by that route, Lucas rows and all, so each golden
witness's verdict is checked against elimination.  ``GOLDEN_0_5_0``
holds the digests recorded in the 0.5.0 layout, whose rows also stated a
``role`` and a final-piece ``padding_ok`` and whose statement read
"dimension >= 0"; :func:`_as_0_5_0` turns a 0.6.0 certificate back into
that layout.  ``GOLDEN`` holds the digests recorded in the 0.2.0 layout,
where a witness listed its ``subset`` point by point with its
``assignment``; :func:`_as_0_2_0` turns a 0.5.0 certificate back into
that layout, so the runs of today's witnesses must state exactly the
points recorded then.

``ORACLE_GOLDEN`` pins certificates whose rows carry an oracle verdict
(seed 1), in the 0.5.0 layout, so the ``rank``, ``prime`` and ``caveat``
bytes that elimination gives in both oracle modes are pinned as well.

``ORACLE_SWEEP_GOLDEN`` pins, in one digest and in the 0.6.0 layout,
eckl10's ``modular`` and ``exact`` certificates at every scale 1..65 and
the random corpus's at scales 13 and 26: these reach the fallback past
GF(2), which none of the ``ORACLE_GOLDEN`` certificates does.

``SWEEP_GOLDEN`` pins, in one digest each and in the 0.5.0 layout,
eckl10's certificates in mode
``none`` at every scale 1..150 and the random corpus of
``conftest.random_dissection`` (seeds 0..59) at scales 13, 26 and 52, a
scale with an empty piece standing as its refusal.  The seeded
equivalence tests at the end compare the lattice layer's run-based steps
(split, profiles, witness size and selection, transposition) with
point-by-point references on scattered sets, so a change there must state
the same points as well as the same bytes.

``REFUSAL_GOLDEN`` pins the ``validate`` reports of refused copies of
eckl10's file (a copy moved off the simplex is refused at load, before
any report), and ``CLI_GOLDEN`` the ``bound`` and ``verify --m`` output
of a valid dissection whose pieces are not on eckl10's grid of 1/26: a
change to how files are read, pieces cut or profiles computed must leave
what is refused, and why, as it was.
"""

import copy
import hashlib
import random
import re
from collections import Counter
from fractions import Fraction as F

import pytest

from seshadri import __version__
from seshadri._kernels import modrank
from seshadri.certify import EmptyPolygonAtScale, FiniteCertificate, finite_certificate
from seshadri.dissection import (BUILTIN_POINT_TABLE, CutStep, Dissection,
                                 builtin_dissection_eckl10, certified_bound,
                                 dissection_from_json, dissection_to_json, dump_json,
                                 validate_dissection, verify_asymptotic)
from seshadri.cli import run
from seshadri.geometry import AffineForm
from seshadri.lattice import (Direction, LatticeSet, WitnessSelection, _transpose,
                              _witness_from_profile, column_profile,
                              max_parallel_witness, split_by_affine)
from seshadri.oracle import (MODULAR_DEFAULT_PRIME, _condition_rows, _gf2_rank,
                             _lucas_rows, fraction_free_rank)
from seshadri.render import RenderSpec, render_svg

import fraction_reference as ref
from conftest import random_dissection

GOLDEN_TOOL_VERSION = "0.2.0"
GOLDEN = {
    13: "9d7ebd409acc39d5281d3ec659ce0b1ada85fe8c50fecff50a26c02cecc315bf",
    26: "92384bef5144af295e1659be3c14fc89dfa4169ebfd9a660e013d4ecabcfb342",
    52: "d79e3e0a01d46c08cb337354c38b0e33959e3026aa6e00844c41286f32189b4e",
    104: "80c0cab5b414c9b31781296ed357bc033a26fd63b7b219845dbc4afed25e2623",
    208: "643a13aa1765383f069ad6b620e0f1db079b47a5e57394b7da69f40ec670f0a5",
}
RUNS_TOOL_VERSION = "0.5.0"
GOLDEN_0_5_0 = {
    13: "b617e9972209953f2ee371f4f3c13c44ef06db64369a5058f11c1244d7507e91",
    26: "953d27fdc2b83c9dc096f577e246e5d8d3b5a1b5d5f376f39750b22b615a5089",
    52: "4f9678848663fde4e32db82392302c1e8d5b928aa57bc971da975e4c990d49e7",
    104: "0e7592c8d368428fa89a108275ad54e6b404e3b93ebc036eace16b9567a264dd",
    208: "1207be9cd3646fed30c6beabc8580310c148674af68124864ebf9cf7ca4d129c",
}
PRE_IDENTITY_TOOL_VERSION = "0.6.0"
GOLDEN_0_6_0 = {
    13: "7d68a36e10954c67720ae2723fdd1df01aef6a6189f05c8f790fe44ed360fe15",
    26: "fd42369d1db504cfa2a6668cdc86a46bafb555282ee7d8690f2b96fb5659a7a5",
    52: "759345b933841d22cb2d6a7e284adedba6623235f4aa91532415aeea7599972b",
    104: "f40852c63736579e6c9583339155985e517dad4bc2ea3a6d5ef0b17736fe9084",
    208: "0fe296d2b367b8c363fa50c5781e25c4574f6f4a696c1dc05ff8590c962d4d2b",
}
GOLDEN_0_7_0 = {
    13: "77a015d0a855924fab0b10c62a9bbb21fbbcdb6e10c69384453cca03f3e12172",
    26: "9d9c3605c5cfbabf3cbddc1f8090105d167bd60210e3865b6c9a898b68ecdc5e",
    52: "aa5f4c405183a876be0a895763e9becde58259fa1b58389fb5e05f1e25a2a3e0",
    104: "dfcdee1fbaddd499e7a891541c00ddda951fd6fb620c1cc12152169dc5136024",
    208: "5fca5a15e66f4cb0b6b38fcffe59178d5a0b72056c60646bb5779b9ba82aa06f",
}
ORACLE_GOLDEN = {
    ("modular", 26): "d45de5154e226c9fe95894207220521554845ebdee04eeed0f5faf30dee514f8",
    ("modular", 39): "02f9ebcdc7e6d1297a6dc6f1022a2c8e88105ca3d6f9bf1f78e272835b9a04fe",
    ("modular", 52): "774968b785e1e9a117b0a496e71a8563ac3c8975db29e35e1c260a30a5a832f0",
    ("modular", 65): "77bcd079284bcc2d9da9f2fc6c46d7f856ae4210c306fc4b07fe43801344e064",
    ("exact", 13): "3d4ddfbc7b068f5e371f1afb778ed99faddd1b3b05f92e46171b0aeeb16de6ed",
    ("exact", 26): "281c00ebab608cdc7c9fa574a982ef86940f71bee9c049a4c22789f214524a5f",
}
# mode none, tool_version 0.5.0: eckl10 at n = 1..150, and random-0..59 at
# n = 13, 26, 52 (59 of those 180 certificates meet an empty piece)
SWEEP_GOLDEN = {
    "eckl10": "1046647f6edc9de396c157e10f6a74d46d28c0d6f5f628d6bb4a9c5684974007",
    "random corpus": "c3c30aaf84c46911dfb5357d7dc2fb6a0984db02905084c4415d21c0e3931803",
}
# modular then exact, seed 1, tool_version 0.6.0: eckl10 at n = 1..65, and
# random-0..59 at n = 13, 26 (53 of each mode's 185 certificates meet an
# empty piece, and 23 of the other 924 rows rank B beyond GF(2))
ORACLE_SWEEP_GOLDEN = "f7fe489d589a9b0a2283a3d6131fd33315f619bc9792a8b797aa64cfba833daf"

BUILTIN = builtin_dissection_eckl10()

ASYMPTOTIC_GOLDEN = {
    "dissection": ("dde7caaa3a0d7c1040ad9667d8934ac8bad6aa3f9e3aa7bc5226925a12aa4e64",
                   lambda: dump_json(dissection_to_json(BUILTIN))),
    "validate": ("7e4bbee3892d39c5c8fc726c86996477282e22c33f15d1d845e4370ee818544c",
                 lambda: dump_json(validate_dissection(BUILTIN).to_json())),
    "verify 3/10": ("9296d48bf36104029b4f5ac363775cafa33c77ab887a92ec178b662a70df1e4b",
                    lambda: dump_json(verify_asymptotic(BUILTIN, F(3, 10)).to_json())),
    "verify 4/13": ("bfc78adf3165fe1ccb758bce550c8c95ff82df05e0b81dea60980b3d639f2801",
                    lambda: dump_json(verify_asymptotic(BUILTIN, F(4, 13)).to_json())),
    "render": ("383675cb691d3f5249c4dffc5652708ec9b6d74e04eac42304b70a1b64bc0417",
               lambda: render_svg(BUILTIN, RenderSpec(),
                                  point_names=BUILTIN_POINT_TABLE)),
}



def _nudged(data: dict) -> dict:
    """P4's third vertex moved outward across the chord of its neighbours
    by 1/211 of that chord, as the benchmark tampers a copy."""
    poly = data["steps"][3]["polygon"]
    (px, py), (qx, qy) = poly[1], poly[3 % len(poly)]
    dx, dy = F(qx) - F(px), F(qy) - F(py)
    x, y = F(poly[2][0]), F(poly[2][1])
    poly[2] = [str(x + dy / 211), str(y - dx / 211)]
    return data


def _moved_cut(data: dict) -> dict:
    """Cut 1's r0 moved by 1/97: its crossings leave every stated grid."""
    cut = data["steps"][0]["cut"]
    cut["r0"] = str(F(cut["r0"]) + F(1, 97))
    return data


def _shifted(data: dict) -> dict:
    """Every vertex and cut moved left by 1/7: a dissection of a region
    other than the simplex, which no load accepts."""
    def moved(poly):
        return [[str(F(x) - F(1, 7)), y] for x, y in poly]
    data["region"], data["final"] = moved(data["region"]), moved(data["final"])
    for step in data["steps"]:
        step["polygon"] = moved(step["polygon"])
        step["cut"]["r0"] = str(F(step["cut"]["r0"]) + F(step["cut"]["r1"]) / 7)
    return data


REFUSAL_GOLDEN = {
    "nudged vertex": ("2ffc47f219495dad9e0d048f22a482b5f59ee558224eda750482bb4c22d9e0ad",
                      _nudged),
    "cut off the grid": ("7260a7f7caaddc710394ffe4293465c1fbb59c1e732ec55bcafd7b4efb5a5ce3",
                         _moved_cut),
}


def _sliver() -> Dissection:
    """The simplex with a width-1/100 sliver peeled off its left edge."""
    neg = ref.polygon([(0, 0), (F(1, 100), 0), (F(1, 100), F(99, 100)), (0, 1)])
    pos = ref.polygon([(F(1, 100), 0), (1, 0), (F(1, 100), F(99, 100))])
    return Dissection("sliver", (CutStep(AffineForm(F(-1, 100), 1, 0), neg),), pos)


# (arguments after --dissection): (exit code, sha256 of stdout)
CLI_GOLDEN = {
    ("bound",): (0, "d8e1921ee861d7552766f500d96495868192a941c0e1f0863bf57bba1454645b"),
    ("verify", "--m", "1/101"): (
        0, "ed2871779f0407b57a06f5f184152b8a17b0fd643eab89d111c77a0e12f0b25f"),
    ("verify", "--m", "3/400"): (
        0, "c113f15be66a2d69935136fc2fa8ebe01d90a0ab7898b9af238e6a0f4e6b0d49"),
    ("verify", "--m", "1/50"): (
        1, "06dbba263ea9520b8d53d3eee977816586c05a9a734602c93a6dbc2a64618a46"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# the caveats of the 0.6.0 point-free verdicts
_POINT_FREE = ("point-free: the binomial matrix C(alpha,a)*C(beta,b) has the rank "
               "of the one-point system at every point with xy != 0")
_CAVEATS_0_6_0 = {
    "gf2": _POINT_FREE + ("; it has full rank mod 2, which forces full rank over Q: "
                          "the verdict is conclusive"),
    "exact-rational": _POINT_FREE + "; its rank over Q is exact: either verdict is conclusive",
    "modular": _POINT_FREE + ("; its rank mod p never exceeds that rank: a non-special "
                              "verdict is a certificate; a special verdict is inconclusive"),
}
def _verdict_0_6_0(witness: dict, m: int, method: str) -> dict:
    """The verdict 0.6.0 gave the one-point system of ``witness``, ranked
    afresh: the Lucas rows of its set moved to touch both axes over GF(2),
    and when their rank is short, B in the mode's field at the default
    prime, or over Q."""
    D = WitnessSelection.from_json(witness).subset
    s, t = min(alpha for alpha, _ in D), min(beta for _, beta in D)
    D = LatticeSet([(alpha - s, beta - t) for alpha, beta in D])
    if _gf2_rank(_lucas_rows(D, m)) == len(D):
        prime, caveat, rank = 2, _CAVEATS_0_6_0["gf2"], len(D)
    else:
        B = _condition_rows(D, [(1, 1)], (m,))
        prime = MODULAR_DEFAULT_PRIME if method == "modular" else None
        caveat = _CAVEATS_0_6_0[method]
        rank = fraction_free_rank(B) if prime is None else modrank(B, prime)
    actual = len(D) - 1 - rank
    return {"actual_dimension": actual, "expected_dimension": -1,
            "non_special": actual == -1, "method": method, "prime": prime,
            "caveat": caveat, "rank": rank, "seed": None}


def _as_0_6_0(data: dict, dis: Dissection) -> dict:
    """The certificate JSON ``data`` of ``dis`` in the 0.6.0 layout: each
    row's ``deviation`` |m - n t| / (n t) from the certified bound t
    (0 when t is), each verdict ranked by :func:`_verdict_0_6_0`, which
    must agree with the identity's rank, and the tool version 0.6.0."""
    old = copy.deepcopy(data)
    old["tool_version"] = PRE_IDENTITY_TOOL_VERSION
    n, bound = old["scale"], certified_bound(dis)
    for row in old["per_polygon"]:
        target = n * bound
        row["deviation"] = str(abs(row["m"] - target) / target if target else F(0))
        verdict = row["oracle"]
        if verdict is not None:
            row["oracle"] = _verdict_0_6_0(row["witness"], row["m"], verdict["method"])
            assert row["oracle"]["rank"] == verdict["rank"], (data["dissection"], n, row)
    return old


def _as_0_5_0(data: dict) -> dict:
    """The 0.6.0 certificate JSON ``data`` in the 0.5.0 layout: each row's
    ``role`` restored by its place, ``padding_ok`` on the last row whether
    its piece holds more points than its witness and null elsewhere, the
    statement's "dimension >= 0" and the tool version 0.5.0."""
    old = copy.deepcopy(data)
    old["tool_version"] = RUNS_TOOL_VERSION
    old["statement"] = old["statement"].rsplit(" ", 1)[0] + " >= 0"
    rows = old["per_polygon"]
    for row in rows:
        row["role"], row["padding_ok"] = "dim-minus-one", None
    last = rows[-1]
    last["role"] = "final"
    last["padding_ok"] = last["lattice_count"] > last["m"] * (last["m"] + 1) // 2
    return old


def _as_0_2_0(data: dict) -> dict:
    """The 0.5.0 certificate JSON ``data`` in the 0.2.0 layout: each
    witness's runs expanded into its sorted ``subset`` points, its
    ``assignment`` restored as (line, size) largest first, and the tool
    version 0.2.0."""
    old = copy.deepcopy(data)
    old["tool_version"] = GOLDEN_TOOL_VERSION
    for row in old["per_polygon"]:
        witness = row["witness"]
        vertical = witness["direction"] == "vertical"
        points, sizes = [], {}
        for line, first, count in witness.pop("runs"):
            sizes[line] = sizes.get(line, 0) + count
            for along in range(first, first + count):
                points.append([line, along] if vertical else [along, line])
        witness["subset"] = sorted(points)
        witness["assignment"] = sorted(([line, size] for line, size in sizes.items()),
                                       key=lambda a: -a[1])
    return old


def _as_0_5_0_of(data: dict, dis: Dissection) -> dict:
    return _as_0_5_0(_as_0_6_0(data, dis))


@pytest.mark.parametrize("n", sorted(GOLDEN))
def test_certificate_bytes_pinned(n):
    cert = finite_certificate(BUILTIN, n, "none")
    assert _sha256(dump_json(_as_0_2_0(_as_0_5_0_of(cert.to_json(), BUILTIN)))) == GOLDEN[n]


@pytest.mark.parametrize("n", sorted(GOLDEN_0_5_0))
def test_certificate_runs_bytes_pinned(n):
    cert = finite_certificate(BUILTIN, n, "none")
    assert _sha256(dump_json(_as_0_5_0_of(cert.to_json(), BUILTIN))) == GOLDEN_0_5_0[n]


@pytest.mark.parametrize("n", sorted(GOLDEN_0_6_0))
def test_certificate_0_6_0_bytes_pinned(n):
    cert = finite_certificate(BUILTIN, n, "none")
    assert _sha256(dump_json(_as_0_6_0(cert.to_json(), BUILTIN))) == GOLDEN_0_6_0[n]


@pytest.mark.parametrize("n", sorted(GOLDEN_0_7_0))
def test_certificate_0_7_0_bytes_pinned(n):
    cert = finite_certificate(BUILTIN, n, "none")
    assert cert.tool_version == __version__
    assert _sha256(dump_json(cert.to_json())) == GOLDEN_0_7_0[n]


@pytest.mark.parametrize("version", ["0.5.0", "0.6.0"])
def test_old_certificate_refused_by_its_version(version):
    data = _as_0_6_0(finite_certificate(BUILTIN, 13, "modular").to_json(), BUILTIN)
    if version == "0.5.0":
        data = _as_0_5_0(data)
    with pytest.raises(ValueError, match=re.escape(f"tool_version '{version}' is not one of")):
        FiniteCertificate.from_json(data)


@pytest.mark.parametrize("mode,n", sorted(ORACLE_GOLDEN))
def test_oracle_certificate_bytes_pinned(mode, n):
    cert = finite_certificate(BUILTIN, n, mode, seed=1)
    assert _sha256(dump_json(_as_0_5_0_of(cert.to_json(), BUILTIN))) == ORACLE_GOLDEN[mode, n]


@pytest.mark.parametrize("what", sorted(ASYMPTOTIC_GOLDEN))
def test_asymptotic_bytes_pinned(what):
    digest, text = ASYMPTOTIC_GOLDEN[what]
    assert _sha256(text()) == digest


@pytest.mark.parametrize("what", sorted(REFUSAL_GOLDEN))
def test_refusal_bytes_pinned(what):
    digest, tamper = REFUSAL_GOLDEN[what]
    report = validate_dissection(dissection_from_json(tamper(dissection_to_json(BUILTIN))))
    assert not report.ok
    assert _sha256(dump_json(report.to_json())) == digest


def test_shifted_region_refused_at_load():
    with pytest.raises(ValueError, match=r"^region \(-1/7, 0\), \(6/7, 0\), \(-1/7, 1\) "
                                         r"is not the standard simplex"):
        dissection_from_json(_shifted(dissection_to_json(BUILTIN)))


@pytest.mark.parametrize("args", sorted(CLI_GOLDEN))
def test_cli_output_on_another_grid_pinned(args, tmp_path, capsys):
    path = tmp_path / "sliver.json"
    path.write_text(dump_json(dissection_to_json(_sliver())), encoding="utf-8")
    rc = run([args[0], "--dissection", str(path), *args[1:]])
    assert (rc, _sha256(capsys.readouterr().out)) == CLI_GOLDEN[args]


def _certificate_texts(dis, scales, mode="none", seed=0, layout=_as_0_5_0_of):
    """The pinned text of ``dis``'s certificate in ``mode`` at each scale,
    in ``layout``; a scale at which a piece is empty writes the refusal
    instead."""
    for n in scales:
        try:
            cert = finite_certificate(dis, n, mode, seed)
        except EmptyPolygonAtScale as exc:
            yield f"{dis.name} n = {n}: EmptyPolygonAtScale: {exc}\n"
        else:
            yield dump_json(layout(cert.to_json(), dis))


def _corpus():
    return [random_dissection(random.Random(seed), f"random-{seed}") for seed in range(60)]


SWEEPS = {
    "eckl10": lambda: _certificate_texts(BUILTIN, range(1, 151)),
    "random corpus": lambda: (text for dis in _corpus()
                              for text in _certificate_texts(dis, (13, 26, 52))),
}


@pytest.mark.parametrize("what", sorted(SWEEP_GOLDEN))
def test_certificate_sweep_bytes_pinned(what):
    assert _sha256("".join(SWEEPS[what]())) == SWEEP_GOLDEN[what]


def test_oracle_sweep_bytes_pinned():
    """Every verdict of both modes as elimination gives it, fallbacks to
    the prime or to Q included, in the 0.6.0 layout."""
    corpus = _corpus()
    texts = (text for mode in ("modular", "exact")
             for dis, scales in [(BUILTIN, range(1, 66))] + [(d, (13, 26)) for d in corpus]
             for text in _certificate_texts(dis, scales, mode, 1, _as_0_6_0))
    assert _sha256("".join(texts)) == ORACLE_SWEEP_GOLDEN


# --- the lattice layer against point-by-point references ---------------------

def _scattered_sets(seed, count, side=14):
    """Seeded lattice sets with several runs on most columns: unions of
    short vertical stretches, about one in ten empty."""
    rng = random.Random(seed)
    for _ in range(count):
        pts = []
        if rng.random() > 0.1:
            for _ in range(rng.randint(1, 3 * side)):
                a, b = rng.randint(0, side), rng.randint(0, 2 * side)
                pts += [(a, b + k) for k in range(rng.randint(1, 4))]
        yield LatticeSet(pts)


def _form(rng, D, scale, trial):
    """A form with small rational coefficients, r2 = 0 on every third trial;
    its constant puts a point of D on the cut, or every point on one side
    (a threshold outside every run), or is drawn at random."""
    def small():
        return F(rng.randint(-6, 6), rng.randint(1, 5))

    r1, r2 = small(), small() if trial % 3 else F(0)
    if not (r1 or r2):
        r1 = F(rng.choice([-1, 1]), rng.randint(1, 5))
    kind = rng.randrange(3)
    if kind == 0 and len(D):
        a, b = rng.choice(D.points)
        return AffineForm(-(r1 * a + r2 * b) / scale, r1, r2)
    if kind == 1:
        return AffineForm(rng.choice([-1000, 1000]), r1, r2)
    return AffineForm(F(rng.randint(-200, 200), rng.randint(1, 9)), r1, r2)


def _reflected(points):
    return LatticeSet([(b, a) for a, b in points])


def test_split_matches_the_sign_of_each_point():
    """Ties go to the second part, and a threshold outside every run sends
    each run whole to one side."""
    rng = random.Random(31)
    ties = whole = 0
    for trial, D in enumerate(_scattered_sets(31, 400)):
        scale = rng.randint(1, 9)
        form = _form(rng, D, scale, trial)
        values = [form.scaled_eval(scale, a, b) for a, b in D]
        neg = LatticeSet([p for p, v in zip(D, values) if v < 0])
        rest = LatticeSet([p for p, v in zip(D, values) if v >= 0])
        d1, d2 = split_by_affine(D, form, scale)
        assert (d1.runs, len(d1), d2.runs, len(d2)) == (neg.runs, len(neg),
                                                        rest.runs, len(rest))
        ties += 0 in values
        whole += len(D) > 0 and not (len(neg) and len(rest))
    assert ties > 100 and whole > 100


def test_profiles_witnesses_and_transposition_match_the_points():
    """Profiles count points per line; the witness size is the largest m
    whose m fullest lines hold at least m, m - 1, ..., 1 points; a witness
    of each feasible size takes the fullest lines (ties by index) and the
    lowest points on each; transposition reflects the points."""
    gaps = 0
    for D in _scattered_sets(32, 300):
        assert _transpose(D.runs) == _reflected(D).runs
        if not len(D):
            continue
        for direction, k in ((Direction.VERTICAL, 0), (Direction.HORIZONTAL, 1)):
            counts = Counter(p[k] for p in D)
            profile = column_profile(D, direction)
            assert profile.counts == tuple(sorted(counts.items()))
            heights = sorted(counts.values(), reverse=True)
            top = max(m for m in range(len(heights) + 1)
                      if all(heights[j] >= m - j for j in range(m)))
            assert max_parallel_witness(profile) == top
            fullest = sorted(counts, key=lambda line: (-counts[line], line))
            for m in range(1, top + 1):
                chosen = []
                for j, line in enumerate(fullest[:m]):
                    chosen += sorted((p for p in D if p[k] == line),
                                     key=lambda p: p[1 - k])[:m - j]
                want = LatticeSet(chosen) if k == 0 else _reflected(chosen)
                w = _witness_from_profile(D, profile, m)
                assert (w.direction, w.runs) == (direction, want.runs)
                gaps += len(w.runs) > m
    assert gaps > 500
