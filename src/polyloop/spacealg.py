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

String form is an s-expression, for example (wedge (sphere 3) (loop (sphere
2))); a JSON mirror {"op": ..., "args": [...]} carries the same tree.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field

from .errors import CeilingExceededError, InvalidParameters, SeriesDomainError
from .series import TruncSeries, _invert, _mul
from .spheres import SphereMultiset

INF = math.inf


class SpaceExpr:
    """Base class; every node is a frozen dataclass below.

    Nodes cache three derived facts outside their dataclass fields: `_key`,
    the sort_key tuple, `_canon`, set once normalize() has returned the
    node, and `_rl`, the runs of a Wedge, Prod or Smash. None of them takes
    part in equality, hashing, repr or pickling."""

    __slots__ = ()
    _key = None
    _canon = False
    _rl = None

    def __getstate__(self):
        return {k: v for k, v in self.__dict__.items() if k not in _CACHES}


_CACHES = ("_key", "_canon", "_rl")


@dataclass(frozen=True)
class Point(SpaceExpr):
    pass


@dataclass(frozen=True)
class Sphere(SpaceExpr):
    d: int

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InvalidParameters("sphere dimension must be at least 1")


@dataclass(frozen=True)
class Atom(SpaceExpr):
    """Opaque named space. Optional finite reduced homology polynomial, and
    an optional reduced polynomial for its loop space, both as sorted
    ((degree, coeff), ...) tuples with degrees >= 1."""

    name: str
    reduced: tuple[tuple[int, int], ...] | None = field(default=None)
    loop_reduced: tuple[tuple[int, int], ...] | None = field(default=None)

    def __post_init__(self) -> None:
        if not self.name or '"' in self.name:
            raise InvalidParameters("atom names must be nonempty and quote-free")
        for poly in (self.reduced, self.loop_reduced):
            if poly is None:
                continue
            if any(d < 1 for d, _ in poly) or list(poly) != sorted(poly):
                raise InvalidParameters("declared polynomials: sorted pairs with degrees >= 1")


@dataclass(frozen=True)
class Wedge(SpaceExpr):
    args: tuple[SpaceExpr, ...]


@dataclass(frozen=True)
class Prod(SpaceExpr):
    args: tuple[SpaceExpr, ...]


@dataclass(frozen=True)
class Smash(SpaceExpr):
    args: tuple[SpaceExpr, ...]


@dataclass(frozen=True)
class Susp(SpaceExpr):
    arg: SpaceExpr


@dataclass(frozen=True)
class Loop(SpaceExpr):
    arg: SpaceExpr


@dataclass(frozen=True)
class Join(SpaceExpr):
    left: SpaceExpr
    right: SpaceExpr


@dataclass(frozen=True)
class HalfSmash(SpaceExpr):
    """Right half-smash: left x right collapsed along basepoint x right."""

    left: SpaceExpr
    right: SpaceExpr


@dataclass(frozen=True)
class Cone(SpaceExpr):
    arg: SpaceExpr


POINT = Point()

_TAG = {
    Point: 0,
    Sphere: 1,
    Atom: 2,
    Wedge: 3,
    Prod: 4,
    Smash: 5,
    Susp: 6,
    Loop: 7,
    Join: 8,
    HalfSmash: 9,
    Cone: 10,
}


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
        k = (t, _repeat_runs((sort_key(a), c) for a, c in _runs(e)))
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
        parts = [(desuspend(a), c) for a, c in _runs(e)]
        if all(p is not None for p, _ in parts):
            return _nary(Wedge, parts)
    if isinstance(e, Smash):
        for i, a in enumerate(e.args):
            down = desuspend(a)
            if a == Sphere(1) or not (down is None or isinstance(down, Point)):
                mid = () if down is None else (down,)
                return _nary(Smash, [(x, 1) for x in e.args[:i] + mid + e.args[i + 1 :]])
    return None


def _runs(e: SpaceExpr) -> tuple[tuple[SpaceExpr, int], ...]:
    """The arguments of a Wedge, Prod or Smash as (value, count) runs of
    consecutive equal arguments, in order, cached on the node.

    Grouping by identity first keeps this linear with a tiny constant on the
    long runs of one shared object that the decompositions and Hilton-Milnor
    build; an equality check then merges equal but distinct neighbours.
    The walkers that visit each run once and scale by its count (normalize,
    sort keys, series, certificates, top dimension, s-expression output)
    cost time per run, not per summand."""
    if e._rl is not None:
        return e._rl
    out: list[tuple[SpaceExpr, int]] = []
    for _, grp in itertools.groupby(e.args, key=id):
        block = list(grp)
        a = block[0]
        if out and out[-1][0] == a:
            out[-1] = (a, out[-1][1] + len(block))
        else:
            out.append((a, len(block)))
    object.__setattr__(e, "_rl", tuple(out))
    return e._rl


def _tally(runs) -> list[list]:
    """Runs added up per object wherever they sit: [value, count] for each
    distinct object, in first-occurrence order. This forgets the order, so
    it serves only commutative operations (series, canonical sorting)."""
    groups: dict[int, list] = {}
    for a, c in runs:
        g = groups.get(id(a))
        if g is None:
            groups[id(a)] = [a, c]
        else:
            g[1] += c
    return list(groups.values())


def _repeat_runs(runs) -> tuple:
    return tuple(itertools.chain.from_iterable(itertools.repeat(a, c) for a, c in runs))


def _sorted_args(runs: list) -> tuple:
    """The arguments spelled out by runs, in sort_key order: equal to a
    stable sort, with each distinct object keyed and placed once."""
    groups = sorted(_tally(runs), key=lambda g: sort_key(g[0]))
    for (a, _), (b, _) in zip(groups, groups[1:]):
        if sort_key(a) == sort_key(b) and a != b:
            # equal keys on unequal nodes (an atom declaring () against
            # None): only the stable sort of the full list fixes the order
            return tuple(sorted(_repeat_runs(runs), key=sort_key))
    return _repeat_runs(groups)


def _nary(cls, runs) -> SpaceExpr:
    """The canonical Wedge, Prod or Smash of canonical (term, count) runs
    with positive counts: same-class children flatten, Point drops out (or
    absorbs a Smash), sphere smash factors merge, and the rest is sorted."""
    flat = []
    for a, c in runs:
        if isinstance(a, Point):
            if cls is Smash:
                return POINT
        elif isinstance(a, cls):
            flat.extend(_runs(a) * c)
        else:
            flat.append((a, c))
    if cls is Smash:
        sph = sum(a.d * c for a, c in flat if isinstance(a, Sphere))
        if sph:
            flat = [(Sphere(sph), 1)] + [r for r in flat if not isinstance(r[0], Sphere)]
    size = sum(c for _, c in flat)
    if size == 0:
        return POINT
    return flat[0][0] if size == 1 else cls(_sorted_args(flat))


def _susp(a: SpaceExpr) -> SpaceExpr:
    """The canonical suspension of a canonical term. It distributes over a
    wedge, one new summand per run, and splits a product into the wedge of
    suspended smashes of its nonempty subsets of factors."""
    if isinstance(a, Point):
        return POINT
    if isinstance(a, Sphere):
        return Sphere(a.d + 1)
    if isinstance(a, Wedge):
        return _nary(Wedge, [(_susp(x), c) for x, c in _runs(a)])
    if isinstance(a, Prod):
        subs = (s for r in range(1, len(a.args) + 1) for s in itertools.combinations(a.args, r))
        return _nary(Wedge, [(_susp(_nary(Smash, [(x, 1) for x in s])), 1) for s in subs])
    return Susp(a)


def _loop(a: SpaceExpr) -> SpaceExpr:
    """The canonical loop space of a canonical term; it distributes over a
    product, one new factor per run."""
    if isinstance(a, Point):
        return POINT
    if isinstance(a, Prod):
        return _nary(Prod, [(_loop(x), c) for x, c in _runs(a)])
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
        return _nary(type(e), [(_norm(a, memo), c) for a, c in _runs(e)])
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
        runs = [(wedge_of_spheres_min_dim(a), c) for a, c in _runs(e)]
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
        runs = [(susp_wedge_min_dim(a), c) for a, c in _runs(e)]
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
            return susp_wedge_min_dim(Prod(tuple(Loop(f) for f in e.arg.args)))
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
        for a, c in _tally(_runs(e)):
            out = [x + c * y for x, y in zip(out, _red(a, n))]
        return out
    if isinstance(e, Prod):
        out = [1] + [0] * n
        for a, c in _tally(_runs(e)):
            r = _red(a, n)
            r[0] += 1
            out = _mul(out, r if c == 1 else _pow(r, c, n), n)
        out[0] -= 1
        return out
    if isinstance(e, Smash):
        out = None
        for a, c in _tally(_runs(e)):
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
            return _red(Prod(tuple(Loop(f) for f in w.args)), n)
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
        raise InvalidParameters("series order must be nonnegative")
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
        tops = [(_top_dim(a), c) for a, c in _runs(e)]
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


def lyndon_words(n: int, maxlen: int) -> list[tuple[int, ...]]:
    """Lyndon words over the alphabet 1..n up to the given length, sorted by
    length then lexicographically. Their count by length is the necklace
    number M(n, k), which is what makes the Hilton-Milnor bookkeeping exact."""
    if n < 1:
        raise InvalidParameters("alphabet size must be at least 1")
    if maxlen < 1:
        return []
    words = []
    w = [1]
    while w:
        words.append(tuple(w))
        period = len(w)
        while len(w) < maxlen:
            w.append(w[len(w) - period])
        while w and w[-1] == n:
            w.pop()
        if w:
            w[-1] += 1
    return sorted(words, key=lambda t: (len(t), t))


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
    g = 0
    for m in content:
        g = math.gcd(g, m)
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


def _compositions(total: int, parts: int):
    """Weak compositions of total into parts, earlier parts largest first.

    This order makes letter-1-heavy contents come first, matching the
    lexicographic order of the smallest word with each content."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total, -1, -1):
        for rest in _compositions(total - first, parts - 1):
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
    builds one canonical factor, shared across its run of equal factors,
    which keeps the result usable even when the word count runs into the
    millions (as it does for a wedge of several S^2 summands at a generous
    cutoff): normalize(), series and output walk each run once."""
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
    factors: list[SpaceExpr] = []
    for k in range(1, maxlen + 1):
        for content in _compositions(k, len(bases)):
            if 1 + sum(m * wt for m, wt in zip(content, weights)) > cutoff:
                continue
            count = _lyndon_content_count(content)
            if count == 0:
                continue
            inner = _nary(Smash, [(b, m) for b, m in zip(bases, content) if m])
            factors.extend([_loop(_susp(inner))] * count)
    if not factors:
        return POINT
    return factors[0] if len(factors) == 1 else Prod(tuple(factors))


# a lone '"', the one non-space character the rest skip, is a token to reject
_TOKEN = re.compile(r'\(|\)|"[^"]*"|[^\s()"]+|"')

_NODE_NAMES = {
    "point": Point,
    "sphere": Sphere,
    "atom": Atom,
    "wedge": Wedge,
    "prod": Prod,
    "smash": Smash,
    "susp": Susp,
    "loop": Loop,
    "join": Join,
    "halfsmash": HalfSmash,
    "cone": Cone,
}
_NAME_OF = {v: k for k, v in _NODE_NAMES.items()}


def format_sexpr(e: SpaceExpr) -> str:
    """Render the expression tree as an s-expression.

    Atoms serialize by name alone: declared homology is a computational
    annotation for the series engine, not part of the space's structure, so
    the wire formats do not carry it."""
    if isinstance(e, Point):
        return "point"
    if isinstance(e, Sphere):
        return f"(sphere {e.d})"
    if isinstance(e, Atom):
        return f'(atom "{e.name}")'
    if isinstance(e, (Wedge, Prod, Smash)):
        # one rendering per consecutive run, so the order is kept as is
        inner = " ".join(" ".join([format_sexpr(a)] * c) for a, c in _runs(e))
        return f"({_NAME_OF[type(e)]} {inner})"
    if isinstance(e, (Susp, Loop, Cone)):
        return f"({_NAME_OF[type(e)]} {format_sexpr(e.arg)})"
    return f"({_NAME_OF[type(e)]} {format_sexpr(e.left)} {format_sexpr(e.right)})"


def parse_sexpr(text: str) -> SpaceExpr:
    tokens = _TOKEN.findall(text)
    if not tokens:
        raise InvalidParameters("empty expression")
    pos = 0
    spheres: dict[int, Sphere] = {}

    def parse() -> SpaceExpr:
        nonlocal pos
        if pos >= len(tokens):
            raise InvalidParameters("unexpected end of expression")
        tok = tokens[pos]
        pos += 1
        if tok == "point":
            return POINT
        if tok != "(":
            raise InvalidParameters(f"unexpected token {tok!r}")
        head = tokens[pos]
        pos += 1
        if head not in _NODE_NAMES:
            raise InvalidParameters(f"unknown constructor {head!r}")
        args = []
        while pos < len(tokens) and tokens[pos] != ")":
            tok = tokens[pos]
            if tok == "(" or tok == "point":
                args.append(parse())
            else:
                pos += 1
                if tok == '"':
                    raise InvalidParameters("unterminated quoted name")
                if tok.startswith('"'):
                    args.append(tok[1:-1])
                else:
                    try:
                        args.append(int(tok))
                    except ValueError as exc:
                        raise InvalidParameters(f"bad literal {tok!r}") from exc
        if pos >= len(tokens):
            raise InvalidParameters("missing closing parenthesis")
        pos += 1
        node = _build(head, args)
        # one leaf object per sphere dimension, so the runs of a parsed
        # term are as long as those of the term that was printed
        return spheres.setdefault(node.d, node) if isinstance(node, Sphere) else node

    expr = parse()
    if pos != len(tokens):
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


def to_json_obj(e: SpaceExpr) -> dict:
    if isinstance(e, Point):
        return {"op": "point", "args": []}
    if isinstance(e, Sphere):
        return {"op": "sphere", "args": [e.d]}
    if isinstance(e, Atom):
        return {"op": "atom", "args": [e.name]}
    if isinstance(e, (Wedge, Prod, Smash)):
        return {"op": _NAME_OF[type(e)], "args": [to_json_obj(a) for a in e.args]}
    if isinstance(e, (Susp, Loop, Cone)):
        return {"op": _NAME_OF[type(e)], "args": [to_json_obj(e.arg)]}
    return {"op": _NAME_OF[type(e)], "args": [to_json_obj(e.left), to_json_obj(e.right)]}


def from_json_obj(obj: dict) -> SpaceExpr:
    try:
        head, args = obj["op"], obj["args"]
    except (TypeError, KeyError) as exc:
        raise InvalidParameters("expression JSON needs 'op' and 'args'") from exc
    parsed = [from_json_obj(a) if isinstance(a, dict) else a for a in args]
    if head not in _NODE_NAMES:
        raise InvalidParameters(f"unknown constructor {head!r}")
    return _build(head, parsed)
