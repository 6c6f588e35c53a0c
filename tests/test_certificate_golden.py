"""Byte-level regression pins for oracle-free certificates of eckl10.

Each digest is the sha256 of the canonical JSON of
``finite_certificate(eckl10, n, "none")``.  A change to the lattice layer
(enumeration, cut-by-cut split, witness selection) that alters any point
of any piece changes the digest.
"""

import hashlib

import pytest

from seshadri.certify import builtin_dissection_eckl10, dump_json, finite_certificate

GOLDEN = {
    13: "9d7ebd409acc39d5281d3ec659ce0b1ada85fe8c50fecff50a26c02cecc315bf",
    26: "92384bef5144af295e1659be3c14fc89dfa4169ebfd9a660e013d4ecabcfb342",
    52: "d79e3e0a01d46c08cb337354c38b0e33959e3026aa6e00844c41286f32189b4e",
    104: "80c0cab5b414c9b31781296ed357bc033a26fd63b7b219845dbc4afed25e2623",
    208: "643a13aa1765383f069ad6b620e0f1db079b47a5e57394b7da69f40ec670f0a5",
}


@pytest.mark.parametrize("n", sorted(GOLDEN))
def test_certificate_bytes_pinned(n):
    cert = finite_certificate(builtin_dissection_eckl10(), n, "none")
    text = dump_json(cert.to_json())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN[n]
