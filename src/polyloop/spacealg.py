"""Symbolic algebra of pointed spaces up to homotopy.

Expressions are built from eleven constructors: Point, Sphere(d), named Atom,
Wedge, Prod, Smash, Susp, Loop, Join, HalfSmash (the right half-smash
X x Y / (* x Y)) and Cone. normalize() builds a canonical form bottom-up with
smart constructors, applying these homotopy-valid rules to canonical parts:

  - Wedge, Prod, Smash flatten and sort; Point is the unit of Wedge and Prod
    and absorbs Smash; Cone(X) and anything contracted collapses to Point.
  - Smash merges sphere factors: S^a ^ S^b = S^(a+b).
  - Susp(Sphere d) = Sphere(d+1); suspension distributes over Wedge; over a
    finite product it splits as the wedge of suspended smashes of all
    nonempty subsets of the factors.
  - Join(X, Y) = Susp(Smash(X, Y)).
  - Loop(Point) = Point and Loop distributes over Prod.
  - HalfSmash(C, B) = Wedge(C, Smash(C', Susp B)) whenever C is recognised as
    a suspension C = Susp(C'); S^1 counts, with smash factor Susp(B) alone.

Two structural certificates drive everything quantitative. A(e) =
wedge_of_spheres_min_dim(e) certifies "e is homotopy equivalent to a wedge of
spheres" and returns the least sphere dimension (inf for a contractible e);
B(e) = susp_wedge_min_dim(e) certifies the same for Susp(e). B covers loops
via the James splitting Susp(Loop(W)) = wedge of Susp(smash powers of the
desuspension of W), valid when A(W) >= 2.

Poincare series are computed exactly and structurally: a Loop factor inverts
1 - red(W)(t)/t, with the inner reduced series computed at one extra degree of
precision per nesting level. Sphere reports are read off the series, after
certification: a term that A certifies has free homology, so its sphere counts
are the coefficients of its reduced Poincare polynomial. A structural top
dimension (inf through a loop) says whether the ceiling cut spheres off and
bounds the series order. The James splitting is the sphere report of
Susp(Loop(Susp(x))).

Wedge, Prod and Smash store their children as runs: maximal (child, count)
pairs of consecutive equal children, in order. The decompositions are wedges
and products with binomially or Witt-many equal parts, and every walk above
visits each run once and scales by its count. `.args` spells the runs out.

String form is an s-expression, for example (wedge (sphere 3) (loop (sphere
2))).
"""

from __future__ import annotations

import itertools
import math
import re

from .errors import CeilingExceededError, InvalidParameters, SeriesDomainError
from .records import record
from .series import TruncSeries, _invert, _mul
from .spheres import SphereMultiset

INF = math.inf


class SpaceExpr:
    """Base class; every node is a frozen record below.

    Nodes cache two derived facts outside their record fields: `_key`,
    the sort_key tuple, and `_canon`, set once normalize() has returned the
    node. Neither takes part in equality, hashing, repr or pickling."""

    __slots__ = ()
    _key = None
    _canon = False

    def __getstate__(self):
        # the caches are the only attributes whose names start with "_"
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


@record
class Point(SpaceExpr):
    pass


@record
class Sphere(SpaceExpr):
    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InvalidParameters("sphere dimension must be at least 1")


@record
class Atom(SpaceExpr):
    """Opaque named space. Optional finite reduced homology polynomial, and
    an optional reduced polynomial for its loop space, both as sorted
    ((degree, coeff), ...) tuples with degrees >= 1."""

    name: str
    reduced: tuple[tuple[int, int], ...] | None = None
    loop_reduced: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self) -> None:
        if not self.name or '"' in self.name:
            raise InvalidParameters("atom names must be nonempty and quote-free")
        for poly in (self.reduced, self.loop_reduced):
            if poly is None:
                continue
            if any(d < 1 for d, _ in poly) or list(poly) != sorted(poly):
                raise InvalidParameters("declared polynomials: sorted pairs with degrees >= 1")


@record
class _NAry(SpaceExpr):
    """A Wedge, Prod or Smash. `runs` holds the maximal runs of consecutive
    equal children as (child, count) pairs, so equality and hashing on runs
    are those on the spelled-out children. Wedge((a, b, ...)) takes the
    children one by one, and Wedge.of_runs(pairs) takes them with counts."""

    runs: tuple[tuple[SpaceExpr, int], ...]

    def __init__(self, args=()):
        object.__setattr__(self, "runs", self.of_runs(zip(args, itertools.repeat(1))).runs)

    @classmethod
    def of_runs(cls, pairs):
        """The node with each child repeated count times, in order: zero
        counts drop out and equal neighbours merge, by identity first."""
        runs: list[tuple[SpaceExpr, int]] = []
        last = None  # the child of runs[-1]
        for a, c in pairs:
            if runs and (last is a or last == a):
                runs[-1] = (last, runs[-1][1] + c)
            elif c:
                runs.append((a, c))
                last = a
        e = object.__new__(cls)
        object.__setattr__(e, "runs", tuple(runs))
        return e

    @property
    def args(self) -> tuple[SpaceExpr, ...]:
        return _repeat_runs(self.runs)


class Wedge(_NAry):
    pass


class Prod(_NAry):
    pass


class Smash(_NAry):
    pass


@record
class Susp(SpaceExpr):
    arg: SpaceExpr


@record
class Loop(SpaceExpr):
    arg: SpaceExpr


@record
class Join(SpaceExpr):
    left: SpaceExpr
    right: SpaceExpr


@record
class HalfSmash(SpaceExpr):
    """Right half-smash: left x right collapsed along basepoint x right."""

    left: SpaceExpr
    right: SpaceExpr


@record
class Cone(SpaceExpr):
    arg: SpaceExpr


POINT = Point()

_KINDS = (Point, Sphere, Atom, Wedge, Prod, Smash, Susp, Loop, Join, HalfSmash, Cone)
_TAG = {cls: i for i, cls in enumerate(_KINDS)}


def sort_key(e: SpaceExpr):
    """Total-order key of the canonical child order, computed once per node."""
    k = e._key
    if k is not None:
        return k
    t = _TAG[type(e)]
    if isinstance(e, Point):
        k = (t, ())
    elif isinstance(e, Sphere):
        k = (t, (e.d,))
    elif isinstance(e, Atom):
        k = (t, (e.name, e.reduced or (), e.loop_reduced or ()))
    elif isinstance(e, (Wedge, Prod, Smash)):
        k = (t, _repeat_runs((sort_key(a), c) for a, c in e.runs))
    elif isinstance(e, (Susp, Loop, Cone)):
        k = (t, (sort_key(e.arg),))
    else:
        k = (t, (sort_key(e.left), sort_key(e.right)))
    object.__setattr__(e, "_key", k)
    return k


def atom(name: str, reduced=None, loop_reduced=None) -> Atom:
    """Atom constructor accepting {degree: coeff} mappings."""

    def conv(p):
        if p is None:
            return None
        return tuple(sorted((int(d), int(c)) for d, c in dict(p).items() if c))

    return Atom(name, conv(reduced), conv(loop_reduced))


def cp_infinity() -> Atom:
    """Infinite complex projective space: its loop space is a circle."""
    return atom("CP_infinity", loop_reduced={1: 1})


def desuspend(e: SpaceExpr) -> SpaceExpr | None:
    """Structural desuspension, or None. S^1 deliberately returns None; the
    half-smash rule special-cases it because S^0 is not in the algebra. A
    smash desuspends through any one desuspendable factor, since
    Smash(Susp(a), b) = Susp(Smash(a, b))."""
    if isinstance(e, Point):
        return e
    if isinstance(e, Sphere) and e.d >= 2:
        return Sphere(e.d - 1)
    if isinstance(e, Susp):
        return e.arg
    if isinstance(e, Wedge):
        parts = [(desuspend(a), c) for a, c in e.runs]
        if all(p is not None for p, _ in parts):
            return _nary(Wedge, parts)
    if isinstance(e, Smash):
        for i, (a, c) in enumerate(e.runs):
            down = desuspend(a)
            if a == Sphere(1) or not (down is None or isinstance(down, Point)):
                mid = [] if down is None else [(down, 1)]
                return _nary(Smash, [*e.runs[:i], *mid, (a, c - 1), *e.runs[i + 1 :]])
    return None


def _tally(runs) -> list[list]:
    """Runs added up per object wherever they sit: [value, count] for each
    distinct object, in first-occurrence order. This forgets the order, so
    it serves only the series, which are commutative."""
    groups: dict[int, list] = {}
    for a, c in runs:
        groups.setdefault(id(a), [a, 0])[1] += c
    return list(groups.values())


def _repeat_runs(runs) -> tuple:
    return tuple(itertools.chain.from_iterable(itertools.repeat(a, c) for a, c in runs))


def _nary(cls, runs) -> SpaceExpr:
    """The canonical Wedge, Prod or Smash of canonical (term, count) runs:
    zero counts drop out, same-class children flatten, Point drops out (or
    absorbs a Smash), sphere smash factors merge, and the runs are sorted
    stably by sort_key, which spells out to a stable sort of the children."""
    flat = []
    for a, c in runs:
        if not c:
            continue
        if isinstance(a, Point):
            if cls is Smash:
                return POINT
        elif isinstance(a, cls):
            flat.extend(a.runs * c)
        else:
            flat.append((a, c))
    if cls is Smash:
        sph = sum(a.d * c for a, c in flat if isinstance(a, Sphere))
        if sph:
            flat = [(Sphere(sph), 1)] + [r for r in flat if not isinstance(r[0], Sphere)]
    size = sum(c for _, c in flat)
    if size < 2:
        return flat[0][0] if size else POINT
    flat.sort(key=lambda r: sort_key(r[0]))
    return cls.of_runs(flat)


def _susp(a: SpaceExpr) -> SpaceExpr:
    """The canonical suspension of a canonical term. It distributes over a
    wedge, one new summand per run, and splits a product into the wedge of
    suspended smashes of its nonempty subsets of factors.

    It walks sub-multisets of the runs, each counted by the subsets giving
    it, in the order in which itertools.combinations first meets them. Only
    where unequal summands share a sort key (atoms declaring () and nothing)
    does the interleaving of the subsets order them: those are spelled out."""
    if isinstance(a, Point):
        return POINT
    if isinstance(a, Sphere):
        return Sphere(a.d + 1)
    if isinstance(a, Wedge):
        return _nary(Wedge, [(_susp(x), c) for x, c in a.runs])
    if isinstance(a, Prod):
        parts = _susp_subsets(*zip(*a.runs))
        first: dict = {}
        if any(first.setdefault(sort_key(s), s) != s for s, _ in parts):
            parts = _susp_subsets(a.args, (1,) * len(a.args))
        return _nary(Wedge, parts)
    return Susp(a)


def _susp_subsets(factors, caps) -> list:
    """(Susp of the smash, count) of each sub-multiset with caps[i] copies
    of factors[i] at most, in the order of _compositions."""
    return [
        (_susp(_nary(Smash, list(zip(factors, ms)))), math.prod(map(math.comb, caps, ms)))
        for r in range(1, sum(caps) + 1)
        for ms in _compositions(r, caps)
    ]


def _loop(a: SpaceExpr) -> SpaceExpr:
    """The canonical loop space of a canonical term; it distributes over a
    product, one new factor per run."""
    if isinstance(a, Point):
        return POINT
    if isinstance(a, Prod):
        return _nary(Prod, [(_loop(x), c) for x, c in a.runs])
    return Loop(a)


def _norm(e: SpaceExpr, memo: dict) -> SpaceExpr:
    """The canonical form of e, rebuilt bottom-up from canonical children.
    memo maps id(node) to (node, result): holding the node keeps its id
    valid, and each shared subterm is rebuilt once."""
    if e._canon or isinstance(e, (Point, Sphere, Atom)):
        return e
    hit = memo.get(id(e))
    if hit is None:
        out = _norm_node(e, memo)
        hit = memo[id(e)] = (e, e if out == e else out)
    return hit[1]


def _norm_node(e: SpaceExpr, memo: dict) -> SpaceExpr:
    if isinstance(e, (Wedge, Prod, Smash)):
        return _nary(type(e), [(_norm(a, memo), c) for a, c in e.runs])
    if isinstance(e, Susp):
        return _susp(_norm(e.arg, memo))
    if isinstance(e, Loop):
        return _loop(_norm(e.arg, memo))
    if isinstance(e, Join):
        return _susp(_nary(Smash, [(_norm(e.left, memo), 1), (_norm(e.right, memo), 1)]))
    if isinstance(e, Cone):
        return POINT
    if isinstance(e, HalfSmash):
        a, b = _norm(e.left, memo), _norm(e.right, memo)
        if isinstance(a, Point) or isinstance(b, Point):
            return a
        if a == Sphere(1):
            return _nary(Wedge, [(a, 1), (_susp(b), 1)])
        down = desuspend(a)
        if down is not None:
            return _nary(Wedge, [(a, 1), (_nary(Smash, [(down, 1), (_susp(b), 1)]), 1)])
        return HalfSmash(a, b)
    raise InvalidParameters(f"unknown expression node {type(e).__name__}")


def normalize(e: SpaceExpr) -> SpaceExpr:
    """The canonical form of e. Idempotent.

    One bottom-up walk rebuilds each node from its canonical children
    through smart constructors that apply each rule once, so the cost is per
    distinct subterm (and per run of a repeated one), not per copy. A term
    already canonical comes back as itself; the result is marked canonical,
    so normalize() returns it at once, alone or inside a larger term."""
    out = _norm(e, {})
    object.__setattr__(out, "_canon", True)
    return out


def wedge_of_spheres_min_dim(e: SpaceExpr):
    """A(e): least sphere dimension when e is certified to be a wedge of
    spheres, inf when e is certified contractible, None when uncertified."""
    if isinstance(e, (Point, Cone)):
        return INF
    if isinstance(e, Sphere):
        return e.d
    if isinstance(e, (Wedge, Smash)):
        runs = [(wedge_of_spheres_min_dim(a), c) for a, c in e.runs]
        if any(v is None for v, _ in runs):
            return None
        if isinstance(e, Wedge):
            return min((v for v, _ in runs), default=INF)
        return sum(v * c for v, c in runs)
    if isinstance(e, Susp):
        return susp_wedge_min_dim(e.arg)
    if isinstance(e, Join):
        return susp_wedge_min_dim(Smash((e.left, e.right)))
    if isinstance(e, HalfSmash):
        a = wedge_of_spheres_min_dim(e.left)
        if a is None:
            return None
        if a == INF:
            return INF
        b = susp_wedge_min_dim(e.right)
        if b is None:
            return None
        return min(a, a - 1 + b)
    return None


def susp_wedge_min_dim(e: SpaceExpr):
    """B(e) = A(Susp(e)). Covers loops by the James splitting and products by
    the suspension splitting over nonempty subsets of the factors."""
    if isinstance(e, (Point, Cone)):
        return INF
    if isinstance(e, Sphere):
        return e.d + 1
    if isinstance(e, (Wedge, Prod, Smash)):
        runs = [(susp_wedge_min_dim(a), c) for a, c in e.runs]
        if any(v is None for v, _ in runs):
            return None
        if isinstance(e, Wedge):
            return min((v for v, _ in runs), default=INF)
        if isinstance(e, Prod):
            return min((v for v, _ in runs if v != INF), default=INF)
        if any(v == INF for v, _ in runs):
            return INF
        return 1 + sum((v - 1) * c for v, c in runs)
    if isinstance(e, Susp):
        v = susp_wedge_min_dim(e.arg)
        return None if v is None else (INF if v == INF else v + 1)
    if isinstance(e, Loop):
        if isinstance(e.arg, Prod):
            return susp_wedge_min_dim(Prod.of_runs((Loop(f), c) for f, c in e.arg.runs))
        a = wedge_of_spheres_min_dim(e.arg)
        if a is None or a == 1:
            return None
        return a
    if isinstance(e, Join):
        v = susp_wedge_min_dim(Smash((e.left, e.right)))
        return None if v is None else (INF if v == INF else v + 1)
    if isinstance(e, HalfSmash):
        va = susp_wedge_min_dim(e.left)
        vs = susp_wedge_min_dim(Smash((e.left, e.right)))
        if va is None or vs is None:
            return None
        return min(va, vs)
    return None


def _poly_of(pairs: tuple[tuple[int, int], ...], n: int) -> list[int]:
    out = [0] * (n + 1)
    for d, c in pairs:
        if d <= n:
            out[d] += c
    return out


def _pow(base: list[int], k: int, n: int) -> list[int]:
    """base**k through degree n by binary exponentiation."""
    out = [1] + [0] * n
    b = base
    while k:
        if k & 1:
            out = _mul(out, b, n)
        k >>= 1
        if k:
            b = _mul(b, b, n)
    return out


def _red(e: SpaceExpr, n: int) -> list[int]:
    """Reduced Poincare polynomial of e through degree n, exact."""
    if isinstance(e, (Point, Cone)):
        return [0] * (n + 1)
    if isinstance(e, Sphere):
        return [0] * (n + 1) if e.d > n else [0] * e.d + [1] + [0] * (n - e.d)
    if isinstance(e, Atom):
        if e.reduced is None:
            raise SeriesDomainError(f"atom '{e.name}' has no declared homology")
        return _poly_of(e.reduced, n)
    if isinstance(e, Wedge):
        out = [0] * (n + 1)
        for a, c in _tally(e.runs):
            out = [x + c * y for x, y in zip(out, _red(a, n))]
        return out
    if isinstance(e, Prod):
        out = [1] + [0] * n
        for a, c in _tally(e.runs):
            r = _red(a, n)
            r[0] += 1
            out = _mul(out, r if c == 1 else _pow(r, c, n), n)
        out[0] -= 1
        return out
    if isinstance(e, Smash):
        out = None
        for a, c in _tally(e.runs):
            r = _red(a, n)
            if c > 1:
                r = _pow(r, c, n)
            out = r if out is None else _mul(out, r, n)
        return out if out is not None else [0] * (n + 1)
    if isinstance(e, Susp):
        return [0] + _red(e.arg, n)[:n]
    if isinstance(e, Join):
        return [0] + _mul(_red(e.left, n), _red(e.right, n), n)[:n]
    if isinstance(e, HalfSmash):
        certs = (wedge_of_spheres_min_dim, susp_wedge_min_dim, desuspend)
        if all(f(e.left) is None for f in certs):
            raise SeriesDomainError("half-smash series needs a suspension on the left")
        ra, rb = _red(e.left, n), _red(e.right, n)
        rb[0] += 1
        return _mul(ra, rb, n)
    if isinstance(e, Loop):
        w = e.arg
        if isinstance(w, Point):
            return [0] * (n + 1)
        if isinstance(w, Prod):
            return _red(Prod.of_runs((Loop(f), c) for f, c in w.runs), n)
        if isinstance(w, Atom) and w.loop_reduced is not None:
            return _poly_of(w.loop_reduced, n)
        a = wedge_of_spheres_min_dim(w)
        if a is None or a < 2:
            raise SeriesDomainError(
                "loop series requires a simply connected wedge of spheres "
                "(or a product of such loops, or an atom with declared loop homology)"
            )
        if a == INF:
            return [0] * (n + 1)
        rw = _red(w, n + 1)
        if rw[0] != 0 or rw[1] != 0:
            raise SeriesDomainError("certified loop target has unexpected low-degree homology")
        den = [1] + [-rw[k + 1] for k in range(1, n + 1)]
        full = _invert(den, n)
        full[0] -= 1
        return full
    raise SeriesDomainError(f"no series rule for {type(e).__name__}")


def poincare_series(e: SpaceExpr, n: int) -> TruncSeries:
    """Exact Poincare series of e through degree n (constant term 1).

    Works on the raw expression: every series rule in _red is defined on
    unnormalized terms, so normalize() never changes the answer (a fact the
    test suite checks rather than assumes), and skipping it keeps very large
    products cheap."""
    if n < 0:
        raise InvalidParameters("truncation order must be nonnegative")
    red = _red(e, n)
    if red[0] != 0:
        raise SeriesDomainError("expression has reduced homology in degree 0")
    return TruncSeries(n, tuple([1] + red[1:]))


def _top_dim(e: SpaceExpr):
    """Top degree of reduced homology, read off the structure: 0 for a
    contractible term, inf through a loop on a noncontractible one. Exact on
    terms that wedge_of_spheres_min_dim certifies, whose homology is free."""
    if isinstance(e, (Point, Cone)):
        return 0
    if isinstance(e, Sphere):
        return e.d
    if isinstance(e, (Wedge, Prod, Smash)):
        tops = [(_top_dim(a), c) for a, c in e.runs]
        if isinstance(e, Wedge):
            return max((t for t, _ in tops), default=0)
        if isinstance(e, Smash) and any(t == 0 for t, _ in tops):
            return 0
        return sum(t * c for t, c in tops)
    if isinstance(e, Susp):
        t = _top_dim(e.arg)
        return t + 1 if t else 0
    if isinstance(e, Join):
        return _top_dim(Susp(Smash((e.left, e.right))))
    if isinstance(e, HalfSmash):
        t = _top_dim(e.left)
        return t + _top_dim(e.right) if t else 0
    if isinstance(e, Loop):
        return INF if _top_dim(e.arg) else 0
    return INF


def _sphere_counts(e: SpaceExpr, max_dim: int) -> tuple[dict[int, int], bool]:
    """Sphere counts through max_dim of a certified wedge of spheres, read off
    its reduced Poincare polynomial, and whether the ceiling cut any off."""
    if wedge_of_spheres_min_dim(e) is None:
        raise CeilingExceededError(f"{type(e).__name__} term not certified a wedge of spheres")
    top = _top_dim(e)
    # the series is dense in degree: never compute it past the top sphere
    red = _red(e, min(top, max_dim))
    return {d: c for d, c in enumerate(red) if c}, top > max_dim


def sphere_multiset_of(e: SpaceExpr, max_dim: int) -> SphereMultiset:
    """The spheres of normalize(e) through max_dim; infinite families are
    truncated and flagged. Raises CeilingExceededError unless the normalized
    term is certified a wedge of spheres."""
    if max_dim < 1:
        raise InvalidParameters("sphere ceiling must be at least 1")
    counts, truncated = _sphere_counts(normalize(e), max_dim)
    return SphereMultiset(counts, max_dim, truncated)


def james_split(x: SpaceExpr, cutoff: int) -> SpaceExpr:
    """Expansion of Susp(Loop(Susp(x))) as a sphere wedge through dimension
    `cutoff`, for x whose suspension is certified a wedge of spheres."""
    if cutoff < 1:
        raise InvalidParameters("cutoff must be at least 1")
    counts, _ = _sphere_counts(Susp(Loop(Susp(normalize(x)))), cutoff)
    return _nary(Wedge, [(Sphere(d), c) for d, c in counts.items()])


def _mobius(n: int) -> int:
    out = 1
    k = 2
    while k * k <= n:
        if n % k == 0:
            n //= k
            if n % k == 0:
                return 0
            out = -out
        k += 1
    if n > 1:
        out = -out
    return out


def _lyndon_content_count(content: tuple[int, ...]) -> int:
    """Number of Lyndon words using letter i exactly content[i-1] times.

    Witt's formula: (1/k) sum over e dividing gcd(content) of
    mobius(e) * multinomial(k/e; content/e), with k the word length."""
    k = sum(content)
    g = math.gcd(*content)
    total = 0
    for e in range(1, g + 1):
        if g % e:
            continue
        mu = _mobius(e)
        if mu == 0:
            continue
        term = math.factorial(k // e)
        for m in content:
            term //= math.factorial(m // e)
        total += mu * term
    return total // k


def _compositions(total: int, caps: tuple[int, ...]):
    """Weak compositions of total with part i at most caps[i], earlier parts
    largest first. This order makes letter-1-heavy contents come first,
    matching the lexicographic order of the smallest word with each content,
    and is the order in which itertools.combinations over spelled-out runs
    first meets each sub-multiset of size total."""
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for first in range(min(total, caps[0]), -1, -1):
        for rest in _compositions(total - first, caps[1:]):
            yield (first,) + rest


def hilton_milnor(w: SpaceExpr, cutoff: int) -> SpaceExpr:
    """Loop space of a finite wedge of suspensions as a weak product of loops
    on suspended smashes indexed by Lyndon words.

    Sphere letters weigh their dimension minus one (so a word maps to a
    sphere of dimension 1 + total weight); other suspension letters weigh 1.
    Words whose sphere dimension would exceed `cutoff` are dropped, so the
    result is series-exact through degree cutoff - 1.

    The factor for a word depends only on its letter content (smash factors
    commute), so the product is assembled content by content, with Witt's
    formula giving the number of Lyndon words per content. Each content
    builds one canonical factor and stores it once, as a run whose count is
    that number, which keeps the result small even when the word count runs
    into the millions (as it does for a wedge of several S^2 summands at a
    generous cutoff): normalize(), series and output walk each run once."""
    if cutoff < 1:
        raise InvalidParameters("cutoff must be at least 1")
    wn = normalize(w)
    if isinstance(wn, Point):
        return POINT
    summands = list(wn.args) if isinstance(wn, Wedge) else [wn]
    bases = []
    for s in summands:
        down = desuspend(s)
        if down is None or isinstance(down, Point):
            raise SeriesDomainError(f"wedge summand {format_sexpr(s)} is not a suspension")
        bases.append(down)
    weights = [b.d if isinstance(b, Sphere) else 1 for b in bases]
    maxlen = (cutoff - 1) // min(weights)
    factors: list[tuple[SpaceExpr, int]] = []
    for k in range(1, maxlen + 1):
        for content in _compositions(k, (k,) * len(bases)):
            if 1 + sum(m * wt for m, wt in zip(content, weights)) > cutoff:
                continue
            count = _lyndon_content_count(content)
            if count == 0:
                continue
            inner = _nary(Smash, list(zip(bases, content)))
            factors.append((_loop(_susp(inner)), count))
    if sum(c for _, c in factors) == 1:
        return factors[0][0]
    return Prod.of_runs(factors) if factors else POINT


# a sphere leaf spelled as format_sexpr spells it is one token, its dimension
# captured (at most 18 digits, so int() never meets its digit limit here); a
# lone '"', the one non-space character the rest skip, is a token to reject
_TOKEN = re.compile(r'\(sphere ([1-9][0-9]{0,17})\)|\(|\)|"[^"]*"|[^\s()"]+|"')

_NODE_NAMES = {cls.__name__.lower(): cls for cls in _TAG}
_NAME_OF = {v: k for k, v in _NODE_NAMES.items()}


def format_sexpr(e: SpaceExpr) -> str:
    """Render the expression tree as an s-expression.

    Atoms serialize by name alone: declared homology is a computational
    annotation for the series engine, not part of the space's structure, so
    the wire format does not carry it."""
    if isinstance(e, Point):
        return "point"
    if isinstance(e, Sphere):
        return f"(sphere {e.d})"
    if isinstance(e, Atom):
        return f'(atom "{e.name}")'
    if isinstance(e, (Wedge, Prod, Smash)):
        # one rendering per consecutive run, so the order is kept as is
        inner = " ".join(" ".join([format_sexpr(a)] * c) for a, c in e.runs)
        return f"({_NAME_OF[type(e)]} {inner})"
    if isinstance(e, (Susp, Loop, Cone)):
        return f"({_NAME_OF[type(e)]} {format_sexpr(e.arg)})"
    return f"({_NAME_OF[type(e)]} {format_sexpr(e.left)} {format_sexpr(e.right)})"


def parse_sexpr(text: str) -> SpaceExpr:
    # tokens are read lazily, so a long text is never held as a token list
    matches = _TOKEN.finditer(text)
    # one leaf object per sphere dimension, keyed by its spelling, so the runs
    # of a parsed term are as long as those of the term that was printed
    spheres: dict[str, Sphere] = {}

    def parse(m: re.Match) -> SpaceExpr:
        d = m[1]
        if d:
            return spheres.get(d) or spheres.setdefault(d, Sphere(int(d)))
        tok = m[0]
        if tok == "point":
            return POINT
        if tok != "(":
            raise InvalidParameters(f"unexpected token {tok!r}")
        h = next(matches, None)
        # a leaf in head place reads as the '(' it starts with
        head = h and ("(" if h[1] else h[0])
        if head not in _NODE_NAMES:
            raise InvalidParameters(
                f"unknown constructor {head!r}" if head else "unexpected end of expression"
            )
        args = []
        for m in matches:
            d = m[1]
            if d:
                args.append(spheres.get(d) or spheres.setdefault(d, Sphere(int(d))))
                continue
            tok = m[0]
            if tok == ")":
                break
            if tok == "(" or tok == "point":
                args.append(parse(m))
            elif tok == '"':
                raise InvalidParameters("unterminated quoted name")
            elif tok.startswith('"'):
                args.append(tok[1:-1])
            else:
                try:
                    args.append(int(tok))
                except ValueError as exc:
                    raise InvalidParameters(f"bad literal {tok!r}") from exc
        else:
            raise InvalidParameters("missing closing parenthesis")
        node = _build(head, args)
        return spheres.setdefault(str(node.d), node) if isinstance(node, Sphere) else node

    first = next(matches, None)
    if first is None:
        raise InvalidParameters("empty expression")
    expr = parse(first)
    if next(matches, None) is not None:
        raise InvalidParameters("trailing tokens after expression")
    return expr


def _build(head: str, args: list) -> SpaceExpr:
    cls = _NODE_NAMES[head]
    if cls is Point:
        if args:
            raise InvalidParameters("point takes no arguments")
        return POINT
    if cls is Sphere:
        if len(args) != 1 or not isinstance(args[0], int):
            raise InvalidParameters("sphere takes one integer dimension")
        return Sphere(args[0])
    if cls is Atom:
        if len(args) != 1 or not isinstance(args[0], str):
            raise InvalidParameters("atom takes one quoted name")
        return Atom(args[0])
    if not all(isinstance(a, SpaceExpr) for a in args):
        raise InvalidParameters(f"{head} takes space arguments")
    if cls in (Wedge, Prod, Smash):
        return cls(tuple(args))
    if cls in (Susp, Loop, Cone):
        if len(args) != 1:
            raise InvalidParameters(f"{head} takes exactly one argument")
        return cls(args[0])
    if len(args) != 2:
        raise InvalidParameters(f"{head} takes exactly two arguments")
    return cls(args[0], args[1])
