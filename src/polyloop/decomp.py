"""Loop space decompositions of polyhedral products over graph families.

A decomposition is a chain of splitting steps, one function each. A step
states its splitting and returns what it built with the names of the steps
it ran, and a result's provenance lists those names in the order they ran:

  cone-fibration-splitting   _cone_step
  path-to-points-reduction   _points_step
  porter-fibre               _points_step, through porter_wedge
  fold-splitting             _fold_step, for fold_decompose
  polyhedral-fold-splitting  _fold_step, for gluings of copies of a complex
  endpoint-join-reduction    _endpoint_step, for pages of length 2
  inclusion-fibre-halfsmash  _endpoint_step, for pages of length l >= 3
  book-sphere-decomposition  _book_step, the final assembly of a planar book

For l >= 3, _endpoint_step also names three rules of spacealg: normalize
applies halfsmash-splitting (the HalfSmash rule of _norm_node) to the fibre
and suspension-splitting (_susp of a product) to the fold's suspension of it,
and the series and spheres of the fold's wedge apply james-splitting (the
Loop rule of _cert).

Everything below is exact: series come from the structural engine in
spacealg, sphere reports carry explicit truncation flags, and each public
function documents its validity range.
"""

from __future__ import annotations

import math

# GluingSpec in the annotations is polyloop.complexes'. It is not imported,
# so decompose builds its terms without loading the complexes module.
from .errors import CeilingExceededError, InvalidParameters, SeriesDomainError
from .records import record
from .series import TruncSeries
from .spacealg import (
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

    def to_json_obj(self, term=format_sexpr) -> dict:
        """The result as a JSON object; term(expr) gives each factor's term
        (the command line passes one that leaves a hole it streams into)."""
        obj: dict = {"family": self.family}
        obj.update(self.params)
        obj["factors"] = [{"name": name, "term": term(expr)} for name, expr in self.factors]
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


def _cone_step(m: int, loop_x: SpaceExpr, zk: SpaceExpr):
    """Over a complex K on m vertices, loops on (X, *)^K split as m copies of
    loop_x = Loop X times the loops on the fibre product zk = (Cone Loop X,
    Loop X)^K. Returns the two factors and the step's name."""
    if m < 1:
        raise InvalidParameters("need at least one vertex")
    vertex = normalize(Prod.of_runs([(loop_x, m)]))
    return vertex, normalize(Loop(zk)), ("cone-fibration-splitting",)


def _fold_step(fibre: SpaceExpr, copies: int, step: str = "polyhedral-fold-splitting"):
    """Loops on a wedge of copies spaces Y with fibre F for Y -> X, or on
    the polyhedral product over copies complexes glued along a common
    subcomplex, split as Loop X times loops on the (copies-1)-fold wedge of
    Susp F. Returns that last factor, its wedge and the step's name."""
    fw = normalize(Wedge.of_runs([(Susp(fibre), copies - 1)]))
    return normalize(Loop(fw)), fw, (step,)


def porter_wedge(l: int, circles: bool = True) -> SpaceExpr:
    """Fibre of the inclusion of an l-fold wedge into the l-fold product.

    With circles=True each loop factor is a circle and the summands collapse
    to spheres: k-1 copies of S^(k+1) for each of the C(l, k) subsets of size
    k. Symbolically they are suspended smash powers of Loop(GENERIC_VERTEX_SPACE).
    Each k gives one run whose count is (k-1)·C(l, k), so the wedge has l-1
    runs while its summands number about l·2^(l-1).
    """
    if l < 1:
        raise InvalidParameters("need at least one wedge summand")
    runs = ((_smash_power(k, circles), (k - 1) * math.comb(l, k)) for k in range(2, l + 1))
    return normalize(Wedge.of_runs(runs))


def _vertex_loop(circles: bool) -> SpaceExpr:
    """The loops on one vertex space: S^1 = Loop(CP^infinity) for circles,
    else Loop(GENERIC_VERTEX_SPACE)."""
    return Sphere(1) if circles else Loop(GENERIC_VERTEX_SPACE)


def _smash_power(k: int, circles: bool) -> SpaceExpr:
    """The suspended k-fold smash of vertex loops. For circles it is
    S^(k+1), built directly: building it through normalize makes
    path_decompose(40) about twice as slow."""
    if circles:
        return Sphere(k + 1)
    return Susp(Smash.of_runs([(_vertex_loop(circles), k)]))


def _points_step(l: int, circles: bool = True):
    """Over a path with l edges, _cone_step's fibre product is that over l
    disjoint points, Porter's wedge. Returns it and the two steps' names."""
    if l < 1:
        raise InvalidParameters("path length must be at least 1")
    return porter_wedge(l, circles=circles), ("path-to-points-reduction", "porter-fibre")


def path_fibre_reduce(l: int, circles: bool = True) -> SpaceExpr:
    """Fibre polyhedral product over a path with l edges, reduced to the
    disjoint-points case and expanded by Porter's wedge. l = 1 gives a point."""
    return _points_step(l, circles)[0]


def cone_loop_split(m: int, x: SpaceExpr, zk: SpaceExpr, n: int = 16) -> DecompResult:
    """Split loops on a polyhedral product over an m-vertex complex into m
    copies of Loop(x) times the loops on the given fibre product zk."""
    vertex, fibre, steps = _cone_step(m, Loop(x), zk)
    factors = (("vertex-loops", vertex), ("loop-fibre-product", fibre))
    return _result("cone-loop", {"m": m, "N": n}, factors, steps)


def fold_decompose(n_summands: int, x: SpaceExpr, fibre: SpaceExpr, n: int = 16) -> DecompResult:
    """Loops on an n-fold wedge of a space with chosen map to x and fibre."""
    if n_summands < 1:
        raise InvalidParameters("need at least one wedge summand")
    loops, _, steps = _fold_step(fibre, n_summands, "fold-splitting")
    factors = (("loop-base", normalize(Loop(x))), ("loop-fibre-wedge", loops))
    return _result("fold", {"n": n_summands, "N": n}, factors, steps)


def poly_fold_decompose(
    spec: GluingSpec, fibre_g: SpaceExpr, base_loop: SpaceExpr | None = None, n: int = 16
) -> DecompResult:
    """Loops on the polyhedral product over an iterated gluing: loops on the
    product over one copy, times loops on a (copies-1)-fold wedge of the
    suspended gluing fibre. The base factor stays opaque unless the caller
    passes its own expression for it."""
    base = base_loop if base_loop is not None else Loop(atom("base-product"))
    loops, _, steps = _fold_step(fibre_g, spec.copies)
    factors = (("loop-base", normalize(base)), ("loop-fibre-wedge", loops))
    return _result("glued", {"copies": spec.copies, "N": n}, factors, steps)


def book_C(l: int, circles: bool = True) -> SpaceExpr:
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
        (_smash_power(s + 1, circles), math.comb(l - 1, s) - (1 if s == 1 else 0))
        for s in range(1, l)
    ]
    zk = porter_wedge(l - 1, circles=circles)
    tail = HalfSmash(zk, _vertex_loop(circles))
    return normalize(Wedge.of_runs(parts + [(tail, 1)]))


def _endpoint_step(l: int, circles: bool = True):
    """endpoint_fibre(l, circles) and the names of the branch that built it."""
    if l < 2:
        raise InvalidParameters("page paths must have length at least 2")
    loop_x = _vertex_loop(circles)
    if l == 2:
        return normalize(loop_x), ("endpoint-join-reduction",)
    tail = Loop(HalfSmash(book_C(l, circles=circles), Loop(Join(loop_x, loop_x))))
    return normalize(Prod.of_runs([(loop_x, l - 1), (tail, 1)])), (
        "inclusion-fibre-halfsmash", "suspension-splitting", "james-splitting",
        "halfsmash-splitting")


def endpoint_fibre(l: int, circles: bool = True) -> SpaceExpr:
    """Fibre of the inclusion of one page into the polyhedral product over a
    book whose pages are paths of length l glued along both endpoints: for
    l = 2 it is Loop X, the fibre of the wedge into the join-like product;
    for l >= 3 a product of l-1 loop factors with the loops on a half-smash
    of book_C(l) and the loops on the join of two vertex loop spaces."""
    return _endpoint_step(l, circles)[0]


def _book_step(l: int, p: int):
    """The page factor of the planar book (l, p), from the fold splitting of
    its p+1 pages over the endpoint fibre, its wedge and the steps' names."""
    fibre, page = _endpoint_step(l)
    loops, fw, fold = _fold_step(fibre, p + 1)
    return loops, fw, fold + page + ("book-sphere-decomposition",)


def _visible_spheres(e: SpaceExpr, max_dim: int, name: str) -> SphereMultiset:
    """The spheres of e up to max_dim, refusing a ceiling that hides them all."""
    ms = sphere_multiset_of(e, max_dim)
    if not ms.counts and ms.truncated:
        raise CeilingExceededError(
            f"sphere ceiling {max_dim} hides every sphere of the {name} factor"
        )
    return ms


def _spine(l: int, p: int | None, n: int, max_dim: int | None) -> DecompResult:
    """The decomposition over the path with l edges or, given p, over the
    planar book (l, p): the chain of steps behind the two public builders
    below. max_dim=None leaves out the sphere reports, which the Koszul check
    never reads."""
    if p is not None and (l < 2 or p < 2):
        raise InvalidParameters("book decomposition needs l >= 2 and p >= 2")
    zpl, points = _points_step(l)
    circles, path_loops, steps = _cone_step(l + 1, Sphere(1), zpl)
    steps += points
    factors = (("circles", circles), ("loop-path-fibre", path_loops))
    # sphere report key -> (the wedge's name in a refusal, wedge)
    wedges = {"ZPl": ("path fibre", zpl)}
    if p is not None:
        page_loops, fw, book = _book_step(l, p)
        factors += (("loop-page-fibre-wedge", page_loops),)
        wedges["fibre"] = ("page fibre wedge", fw)
        steps += book
    spheres = None
    if max_dim is not None:
        if max_dim < 2:
            raise InvalidParameters("sphere ceiling below 2 cannot express anything")
        spheres = {key: _visible_spheres(w, max_dim, what) for key, (what, w) in wedges.items()}
    family, params = ("P_l", {"l": l}) if p is None else ("B(l,2l,p)", {"l": l, "p": p})
    return _result(family, {**params, "N": n, "max_dim": max_dim}, factors, steps, spheres)


def path_decompose(l: int, n: int = 16, max_dim: int = 16) -> DecompResult:
    """Loops on the product of infinite projective spaces over a path with l
    edges: l+1 circles times loops on an explicit sphere wedge."""
    return _spine(l, None, n, max_dim)


def dj_book_decompose(l: int, p: int, n: int = 16, max_dim: int = 16) -> DecompResult:
    """Loops on the product of infinite projective spaces over the planar
    book with p+1 paths of length l: l+1 circles, times loops on the path
    fibre wedge, times loops on a p-fold wedge of the suspended page fibre.

    The series is exact through degree n regardless of max_dim; only the
    sphere report is truncated at max_dim.
    """
    return _spine(l, p, n, max_dim)


def book_decompose_symbolic(n_spine: int, l: int, p: int, n: int = 16) -> DecompResult:
    """Symbolic decomposition for a general book: loops on the product over
    one cycle, times loops on a (p-1)-fold wedge of a suspended page fibre
    that stays opaque. No series or sphere report is available here."""
    if l < 3 or not 1 <= n_spine <= l - 2 or p < 2:
        raise InvalidParameters("book parameters must satisfy l >= 3, 1 <= n <= l-2, p >= 2")
    base = normalize(Loop(atom("cycle-product")))
    loops, _, steps = _fold_step(atom("page-fibre"), p)
    factors = (("loop-base", base), ("loop-page-fibre-wedge", loops))
    return _result("B(n,l,p)", {"n": n_spine, "l": l, "p": p, "N": n}, factors, steps)
