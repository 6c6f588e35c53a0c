"""The package's public names: each resolves, and the list changes only on purpose."""

import seshadri

PUBLIC = [
    "__version__",
    # geometry
    "AffineForm", "Axis", "ConvexPolygon", "DegenerateInput", "Interval",
    "Point", "cut_polygon", "height_profile", "parse_rational", "point",
    "x_projection",
    # reorder
    "PiecewiseLinear", "monotone_reorder", "sublevel_measure", "sup_admissible",
    # lattice
    "ColumnProfile", "Direction", "EmptySet", "LatticeSet",
    "MultiplicitySpec", "WitnessSelection", "WitnessTooLarge",
    "column_profile", "expected_dimension", "max_parallel_witness",
    "scaled_points", "select_witness_subset", "split_by_affine",
    # oracle
    "ArityMismatch", "BadModulus", "GenericPointSet", "OracleVerdict",
    "PrimeTooSmall", "SizeGuardrail", "interpolation_matrix",
    "system_dimension_exact", "system_dimension_modp",
    # certify
    "AsymptoticReport", "CutStep", "Dissection", "EmptyPolygonAtScale",
    "FiniteCertificate", "InvalidDissection", "PolygonWitness",
    "builtin_dissection_eckl10", "certified_bound", "dissection_from_json",
    "dissection_to_json", "finite_certificate", "validate_dissection",
    "verify_asymptotic",
    # render
    "RenderSpec", "render_svg",
]


def test_every_public_name_resolves():
    missing = [name for name in seshadri.__all__ if not hasattr(seshadri, name)]
    assert missing == []


def test_public_names_are_unique():
    assert len(set(seshadri.__all__)) == len(seshadri.__all__)


def test_public_names_are_the_pinned_list():
    assert seshadri.__all__ == PUBLIC
