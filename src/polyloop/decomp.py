"""Loop space decompositions of polyhedral products over graph families.

A decomposition is produced by chaining a small set of splitting steps, each
recorded in the result's provenance tuple:

  cone-fibration-splitting   Over a complex K on m vertices, the based loops
                             on the polyhedral product (X, *)^K split as
                             (prod of m copies of Loop X) x Loop of the
                             fibre polyhedral product (Cone Loop X, Loop X)^K.
  path-to-points-reduction   Over a path with l edges, that fibre product is
                             homotopy equivalent to the one over l disjoint
                             points.
  porter-fibre               Over l disjoint points the fibre of the wedge
                             into the product is Porter's wedge: for each
                             2 <= k <= l and each k-subset, k-1 copies of the
                             (k-fold smash of Loop X) suspended once.
  fold-splitting             Loops on an n-fold wedge of a space Y with a
                             fibre F for Y -> X split as Loop X x Loop of the
                             (n-1)-fold wedge of Susp F.
  polyhedral-fold-splitting  The same splitting for an iterated gluing of n
                             copies of a complex along a common subcomplex.
  endpoint-join-reduction    For a length-2 path glued at its endpoints the
                             page fibre is Loop X itself (the fibre of the
                             wedge into the join-like product).
  inclusion-fibre-halfsmash  For longer paths the page fibre is a product of
                             loops with the loops on a half-smash C x| Loop
                             of a join, C as below.
  suspension-splitting       Susp(A x B) = Susp A or Susp B or Susp(A ^ B),
                             iterated over product factors.
  james-splitting            Susp Loop Susp Y = wedge of suspended smash
                             powers of Y.
  halfsmash-splitting        C x| B = C or (C' ^ Susp B) when C = Susp C'.
  book-sphere-decomposition  Final assembly for the planar book family.

Everything below is exact: series come from the structural engine in
spacealg, sphere reports carry explicit truncation flags, and each public
function documents its validity range.
"""

from __future__ import annotations

import math

from .complexes import GluingSpec
from .errors import CeilingExceededError, InvalidParameters, SeriesDomainError
from .records import record
from .series import TruncSeries
from .spacealg import (
    Atom,
    HalfSmash,
    Join,
    Loop,
    Prod,
    Smash,
    SpaceExpr,
    Sphere,
    SphereMultiset,
    Susp,
    Wedge,
    atom,
    format_sexpr,
    normalize,
    poincare_series,
    sphere_multiset_of,
)

GENERIC_VERTEX_SPACE = atom("X")


@record
class DecompResult:
    """A named product decomposition with optional sphere and series reports."""

    family: str
    params: dict[str, int]
    total: SpaceExpr
    factors: tuple[tuple[str, SpaceExpr], ...]
    spheres: dict[str, SphereMultiset] | None
    series: TruncSeries | None
    provenance: tuple[str, ...]

    def to_json_obj(self) -> dict:
        obj: dict = {"family": self.family}
        obj.update(self.params)
        obj["factors"] = [
            {"name": name, "term": format_sexpr(expr)} for name, expr in self.factors
        ]
        if self.spheres is None:
            obj["spheres"] = None
        else:
            obj["spheres"] = {
                key: {str(d): c for d, c in sorted(ms.counts.items())}
                for key, ms in self.spheres.items()
            }
            obj["spheres_truncated"] = {key: ms.truncated for key, ms in self.spheres.items()}
        obj["series"] = None if self.series is None else self.series.to_json_obj()
        obj["provenance"] = list(self.provenance)
        return obj


def _result(
    family: str,
    params: dict[str, int],
    factors: tuple[tuple[str, SpaceExpr], ...],
    provenance: tuple[str, ...],
    spheres: dict[str, SphereMultiset] | None = None,
) -> DecompResult:
    """The decomposition into the named factors: the total is their
    normalized product, and the series runs through degree params["N"], or
    is None for a total outside the computable fragment."""
    total = normalize(Prod(tuple(e for _, e in factors)))
    try:
        series = poincare_series(total, params["N"])
    except SeriesDomainError:
        series = None
    return DecompResult(family, params, total, factors, spheres, series, provenance)


def _fold(
    family: str,
    params: dict[str, int],
    base: SpaceExpr,
    fibre: SpaceExpr,
    copies: int,
    name: str,
    provenance: str = "polyhedral-fold-splitting",
) -> DecompResult:
    """The fold splitting of a space built from copies pieces: the base
    factor, times loops on a (copies-1)-fold wedge of the suspended fibre."""
    fw = normalize(Wedge.of_runs([(Susp(fibre), copies - 1)]))
    factors = (("loop-base", normalize(base)), (name, normalize(Loop(fw))))
    return _result(family, params, factors, (provenance,))


def porter_wedge(l: int, circles: bool = True, x: Atom = GENERIC_VERTEX_SPACE) -> SpaceExpr:
    """Fibre of the inclusion of an l-fold wedge into the l-fold product.

    With circles=True each loop factor is a circle and the summands collapse
    to spheres: k-1 copies of S^(k+1) for each of the C(l, k) subsets of size
    k. Symbolically the summands stay as suspended smash powers of Loop(x).
    Each k gives one run whose count is (k-1)·C(l, k), so the wedge has l-1
    runs while its summands number about l·2^(l-1).
    """
    if l < 1:
        raise InvalidParameters("need at least one wedge summand")
    runs = ((_smash_power(k, circles, x), (k - 1) * math.comb(l, k)) for k in range(2, l + 1))
    return normalize(Wedge.of_runs(runs))


def _smash_power(k: int, circles: bool, x: Atom) -> SpaceExpr:
    """The suspended k-fold smash of loop factors: S^(k+1) for circles."""
    return Sphere(k + 1) if circles else Susp(Smash.of_runs([(Loop(x), k)]))


def path_fibre_reduce(l: int, circles: bool = True, x: Atom = GENERIC_VERTEX_SPACE) -> SpaceExpr:
    """Fibre polyhedral product over a path with l edges, reduced to the
    disjoint-points case and expanded by Porter's wedge. l = 1 gives a point."""
    if l < 1:
        raise InvalidParameters("path length must be at least 1")
    return porter_wedge(l, circles=circles, x=x)


def cone_loop_split(
    m: int, x: SpaceExpr, zk: SpaceExpr, n: int = 16
) -> DecompResult:
    """Split loops on a polyhedral product over an m-vertex complex into m
    copies of Loop(x) times the loops on the given fibre product zk."""
    if m < 1:
        raise InvalidParameters("need at least one vertex")
    factors = (
        ("vertex-loops", normalize(Prod.of_runs([(Loop(x), m)]))),
        ("loop-fibre-product", normalize(Loop(zk))),
    )
    return _result("cone-loop", {"m": m, "N": n}, factors, ("cone-fibration-splitting",))


def fold_decompose(n_summands: int, x: SpaceExpr, fibre: SpaceExpr, n: int = 16) -> DecompResult:
    """Loops on an n-fold wedge of a space with chosen map to x and fibre."""
    if n_summands < 1:
        raise InvalidParameters("need at least one wedge summand")
    return _fold(
        "fold", {"n": n_summands, "N": n}, Loop(x), fibre, n_summands, "loop-fibre-wedge",
        "fold-splitting",
    )


def poly_fold_decompose(
    spec: GluingSpec,
    x: SpaceExpr,
    fibre_g: SpaceExpr,
    base_loop: SpaceExpr | None = None,
    n: int = 16,
) -> DecompResult:
    """Loops on the polyhedral product over an iterated gluing: loops on the
    product over one copy, times loops on a (copies-1)-fold wedge of the
    suspended gluing fibre. The base factor stays opaque unless the caller
    passes its own expression for it."""
    base = base_loop if base_loop is not None else Loop(atom("base-product"))
    return _fold(
        "glued", {"copies": spec.copies, "N": n}, base, fibre_g, spec.copies, "loop-fibre-wedge"
    )


def book_C(l: int, circles: bool = True, x: Atom = GENERIC_VERTEX_SPACE) -> SpaceExpr:
    """Wedge summand C in the page fibre for spine paths of length l >= 3.

    Indexed by nonempty proper subsets I of {0..l-2} with I != {0}: each
    contributes a suspended (|I|+1)-fold smash of loops (a sphere S^(|I|+2)
    in circle mode), plus the half-smash of the length-(l-1) path fibre with
    one more loop factor. In circle mode the half-smash splits, leaving an
    explicit wedge of spheres.
    """
    if l < 3:
        raise InvalidParameters("the C summand exists for spine length at least 3")
    parts = [
        (_smash_power(s + 1, circles, x), math.comb(l - 1, s) - (1 if s == 1 else 0))
        for s in range(1, l)
    ]
    zk = porter_wedge(l - 1, circles=circles, x=x)
    tail = HalfSmash(zk, Sphere(1) if circles else Loop(x))
    return normalize(Wedge.of_runs(parts + [(tail, 1)]))


def endpoint_fibre(l: int, circles: bool = True, x: Atom = GENERIC_VERTEX_SPACE) -> SpaceExpr:
    """Fibre of the inclusion of one page into the polyhedral product over a
    book whose pages are paths of length l glued along both endpoints.

    l = 2 reduces to a single loop factor; for l >= 3 the fibre is a product
    of l-1 loop factors with the loops on a half-smash of book_C(l) and the
    loops on the join of two vertex loop spaces."""
    if l < 2:
        raise InvalidParameters("page paths must have length at least 2")
    if l == 2:
        return Sphere(1) if circles else normalize(Loop(x))
    cbit = book_C(l, circles=circles, x=x)
    join_loops = Loop(Sphere(3)) if circles else Loop(Join(Loop(x), Loop(x)))
    tail = Loop(HalfSmash(cbit, join_loops))
    return normalize(Prod.of_runs([(Sphere(1) if circles else Loop(x), l - 1), (tail, 1)]))


def _visible_spheres(e: SpaceExpr, max_dim: int, name: str) -> SphereMultiset:
    """The spheres of e up to max_dim, refusing a ceiling that hides them all."""
    ms = sphere_multiset_of(e, max_dim)
    if not ms.counts and ms.truncated:
        raise CeilingExceededError(
            f"sphere ceiling {max_dim} hides every sphere of the {name} factor"
        )
    return ms


# the cone splitting and the path fibre, with the factors they give for a
# spine path of length l; both families below start with them
_PATH_STEPS = ("cone-fibration-splitting", "path-to-points-reduction", "porter-fibre")


def _path_factors(l: int, zk: SpaceExpr) -> tuple[tuple[str, SpaceExpr], ...]:
    return (
        ("circles", normalize(Prod.of_runs([(Sphere(1), l + 1)]))),
        ("loop-path-fibre", normalize(Loop(zk))),
    )


def path_decompose(l: int, n: int = 16, max_dim: int = 16) -> DecompResult:
    """Loops on the product of infinite projective spaces over a path with l
    edges: l+1 circles times loops on an explicit sphere wedge."""
    if l < 1:
        raise InvalidParameters("path length must be at least 1")
    if max_dim < 2:
        raise InvalidParameters("sphere ceiling below 2 cannot express anything")
    zk = path_fibre_reduce(l, circles=True)
    spheres = {"ZPl": _visible_spheres(zk, max_dim, "path fibre")}
    return _result(
        "P_l", {"l": l, "N": n, "max_dim": max_dim}, _path_factors(l, zk), _PATH_STEPS, spheres
    )


def dj_book_decompose(l: int, p: int, n: int = 16, max_dim: int = 16) -> DecompResult:
    """Loops on the product of infinite projective spaces over the planar
    book with p+1 paths of length l: l+1 circles, times loops on the path
    fibre wedge, times loops on a p-fold wedge of the suspended page fibre.

    The series is exact through degree n regardless of max_dim; only the
    sphere report is truncated at max_dim.
    """
    if l < 2 or p < 2:
        raise InvalidParameters("book decomposition needs l >= 2 and p >= 2")
    if max_dim < 2:
        raise InvalidParameters("sphere ceiling below 2 cannot express anything")
    zk = path_fibre_reduce(l, circles=True)
    fibre = endpoint_fibre(l, circles=True)
    fw = normalize(Wedge.of_runs([(Susp(fibre), p)]))
    spheres = {
        "ZPl": _visible_spheres(zk, max_dim, "path fibre"),
        "fibre": _visible_spheres(fw, max_dim, "page fibre wedge"),
    }
    if l == 2:
        tail = ("endpoint-join-reduction",)
    else:
        tail = (
            "inclusion-fibre-halfsmash",
            "suspension-splitting",
            "james-splitting",
            "halfsmash-splitting",
        )
    return _result(
        "B(l,2l,p)",
        {"l": l, "p": p, "N": n, "max_dim": max_dim},
        _path_factors(l, zk) + (("loop-page-fibre-wedge", normalize(Loop(fw))),),
        _PATH_STEPS + ("polyhedral-fold-splitting",) + tail + ("book-sphere-decomposition",),
        spheres,
    )


def book_decompose_symbolic(n_spine: int, l: int, p: int, n: int = 16) -> DecompResult:
    """Symbolic decomposition for a general book: loops on the product over
    one cycle, times loops on a (p-1)-fold wedge of a suspended page fibre
    that stays opaque. No series or sphere report is available here."""
    if l < 3 or not 1 <= n_spine <= l - 2 or p < 2:
        raise InvalidParameters("book parameters must satisfy l >= 3, 1 <= n <= l-2, p >= 2")
    return _fold(
        "B(n,l,p)", {"n": n_spine, "l": l, "p": p, "N": n}, Loop(atom("cycle-product")),
        atom("page-fibre"), p, "loop-page-fibre-wedge",
    )
