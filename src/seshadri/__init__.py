"""Exact-arithmetic certificates for multi-point Seshadri lower bounds.

The package dissects the standard simplex into convex pieces by affine
cuts, verifies per-piece projection and rearrangement criteria over exact
rationals, and produces finite-scale certificates whose parallel-lines
witnesses an interpolation-rank oracle can confirm independently.

Importing the package imports none of its modules: each public name is
imported from its home module on first access, so the asymptotic half
never loads the lattice, the oracle or the renderer.
"""

from importlib import import_module

# public name -> the module that defines it; __all__ is its keys, in order
_HOME = {
    "__version__": "__about__",
    # geometry
    "AffineForm": "geometry", "Axis": "geometry", "ConvexPolygon": "geometry",
    "DegenerateInput": "geometry", "Interval": "geometry", "Point": "geometry",
    "cut_polygon": "geometry", "height_profile": "reorder",
    "parse_rational": "_input", "point": "geometry", "x_projection": "geometry",
    # reorder
    "PiecewiseLinear": "reorder", "monotone_reorder": "reorder",
    "sublevel_measure": "reorder", "sup_admissible": "reorder",
    # lattice
    "ColumnProfile": "lattice", "Direction": "lattice", "EmptySet": "lattice",
    "LatticeSet": "lattice", "MultiplicitySpec": "lattice",
    "WitnessSelection": "lattice", "WitnessTooLarge": "lattice",
    "column_profile": "lattice", "expected_dimension": "lattice",
    "max_parallel_witness": "lattice", "scaled_points": "lattice",
    "select_witness_subset": "lattice", "split_by_affine": "lattice",
    # oracle
    "ArityMismatch": "oracle", "BadModulus": "oracle", "GenericPointSet": "oracle",
    "OracleVerdict": "oracle", "PrimeTooSmall": "oracle", "SizeGuardrail": "_input",
    "interpolation_matrix": "oracle", "system_dimension_exact": "oracle",
    "system_dimension_modp": "oracle",
    # dissection and certify
    "AsymptoticReport": "dissection", "CutStep": "dissection",
    "Dissection": "dissection", "EmptyPolygonAtScale": "certify",
    "FiniteCertificate": "certify", "InvalidDissection": "dissection",
    "PolygonWitness": "certify", "builtin_dissection_eckl10": "dissection",
    "certified_bound": "dissection", "dissection_from_json": "dissection",
    "dissection_to_json": "dissection", "finite_certificate": "certify",
    "validate_dissection": "dissection", "verify_asymptotic": "dissection",
    # render
    "RenderSpec": "render", "render_svg": "render",
}

__all__ = list(_HOME)


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(import_module("." + home, __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
