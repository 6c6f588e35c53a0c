"""Exact-arithmetic certificates for multi-point Seshadri lower bounds.

The package dissects the standard simplex into convex pieces by affine
cuts, verifies per-piece projection and rearrangement criteria over exact
rationals, and produces finite-scale certificates whose parallel-lines
witnesses an interpolation-rank oracle can confirm independently.
"""

from .__about__ import __version__
from .certify import (AsymptoticReport, CutStep, Dissection,
                      EmptyPolygonAtScale, FiniteCertificate,
                      InvalidDissection, PolygonWitness,
                      builtin_dissection_eckl10, certified_bound,
                      dissection_from_json, dissection_to_json,
                      finite_certificate, validate_dissection,
                      verify_asymptotic)
from .geometry import (AffineForm, Axis, ConvexPolygon, DegenerateInput,
                       Interval, Point, cut_polygon, height_profile,
                       parse_rational, point, x_projection)
from .lattice import (ColumnProfile, Direction, EmptySet, LatticeSet,
                      MultiplicitySpec, WitnessSelection, WitnessTooLarge,
                      column_profile, expected_dimension, max_parallel_witness,
                      scaled_points, select_witness_subset, split_by_affine)
from .oracle import (ArityMismatch, BadModulus, GenericPointSet, OracleVerdict,
                     PrimeTooSmall, SizeGuardrail, interpolation_matrix,
                     system_dimension_exact, system_dimension_modp)
from .render import RenderSpec, render_svg
from .reorder import (PiecewiseLinear, monotone_reorder, sublevel_measure,
                      sup_admissible)

__all__ = [
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
