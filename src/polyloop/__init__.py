"""Symbolic loop space decompositions of polyhedral products over graph
families, verified two independent ways: exact moment-angle homology via the
Hochster subset formula, and loop-homology Poincare series via Koszul duality
for flag complexes.

The package has no runtime dependencies; all arithmetic is exact integer
arithmetic.
"""

from .complexes import (
    GluingSpec,
    SimplicialComplex,
    book_graph,
    cycle_graph,
    disjoint_points,
    from_facets,
    glue,
    is_isomorphic,
    path_graph,
    planar_book,
    simplex,
)
from .decomp import (
    DecompResult,
    book_C,
    cone_loop_split,
    dj_book_decompose,
    endpoint_fibre,
    fold_decompose,
    path_decompose,
    path_fibre_reduce,
    poly_fold_decompose,
    porter_wedge,
)
from .homology import BettiTable, hochster_zk_betti, zk_sphere_multiset
from .series import TruncSeries, hilbert_sr, koszul_loop_series, strip_circles
from .spacealg import (
    Atom,
    Cone,
    HalfSmash,
    Join,
    Loop,
    POINT,
    Point,
    Prod,
    Smash,
    SpaceExpr,
    Sphere,
    SphereMultiset,
    Susp,
    Wedge,
    atom,
    cp_infinity,
    format_sexpr,
    hilton_milnor,
    james_split,
    lyndon_words,
    normalize,
    parse_sexpr,
    poincare_series,
    sphere_multiset_of,
)

__version__ = "0.1.0"
