"""Symbolic loop space decompositions of polyhedral products over graph
families, verified two independent ways: exact moment-angle homology via the
Hochster subset formula, and loop-homology Poincare series via Koszul duality
for flag complexes.

The package has no runtime dependencies; all arithmetic is exact integer
arithmetic. The names below load their module on first use (PEP 562), so
`import polyloop` alone imports no submodule.
"""

import importlib

_NAMES = {
    "complexes": (
        "GluingSpec", "SimplicialComplex", "book_graph", "cycle_graph", "disjoint_points",
        "from_facets", "glue", "path_graph", "planar_book", "simplex",
    ),
    "decomp": (
        "DecompResult", "book_C", "cone_loop_split", "dj_book_decompose", "endpoint_fibre",
        "fold_decompose", "path_decompose", "path_fibre_reduce", "poly_fold_decompose",
        "porter_wedge",
    ),
    "homology": ("BettiTable", "hochster_zk_betti", "zk_sphere_multiset"),
    "series": ("TruncSeries", "hilbert_sr", "koszul_loop_series"),
    "spheres": ("SphereMultiset",),
    "spacealg": (
        "Atom", "Cone", "HalfSmash", "Join", "Loop", "POINT", "Point", "Prod", "Smash",
        "SpaceExpr", "Sphere", "Susp", "Wedge", "atom", "cp_infinity", "format_sexpr",
        "hilton_milnor", "james_split", "normalize", "parse_sexpr", "poincare_series",
        "sphere_multiset_of",
    ),
}
_EXPORTS = {name: module for module, names in _NAMES.items() for name in names}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
