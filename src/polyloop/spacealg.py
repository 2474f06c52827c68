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

One structural certificate drives everything quantitative. _cert(e) walks
e once and proves two facts together: B, the least sphere dimension of
Susp(e) when Susp(e) is certified a wedge of spheres (inf for the point), and
whether e itself is certified, with least sphere dimension B - 1. Where B is
given it also states the top degree of e's reduced homology, inf through a
loop. B covers loops via the James splitting Susp(Loop(W)) = wedge of
Susp(smash powers of the desuspension of W), valid when W is a certified
wedge with B(W) >= 3.
A smash of factors that all have B is certified when one factor W is: W ^ Y
is the wedge over the spheres S^d of W of Susp^(d-1)(Susp Y).

The certificate and the series read canonical terms only: poincare_series,
sphere_multiset_of and james_split normalize first. So each rule above is
stated once, in normalize, and no walk meets a Join, a Cone or a
contractible child: the point is never a child of a canonical term.

Poincare series are computed exactly and structurally: a Loop factor inverts
1 - red(W)(t)/t, with the inner reduced series computed at one extra degree of
precision per nesting level. A series stops at its last nonzero coefficient,
so a polynomial costs its degree. The certificate gives a wedge's least and
top spheres, and the series gives the counts: a certified wedge of spheres
has free homology, so its sphere counts are its reduced series'
coefficients. A report is cut off exactly when its top sphere is above the
ceiling. The James splitting is the sphere report of Susp(Loop(Susp(x))).

Wedge, Prod and Smash store their children as runs: maximal (child, count)
pairs of consecutive equal children, in order. The decompositions are wedges
and products with binomially or Witt-many equal parts, and every walk above,
sort_key included, visits each run once and scales by its count. `.args`
spells the runs out.

String form is an s-expression, for example (wedge (sphere 3) (loop (sphere
2))). Both directions cost per run, not per copy. sexpr_pieces writes a run
as its child's text repeated in bounded batches. parse_sexpr reads every
token in one loop, with the open forms on a stack, so its depth is not
bounded by the recursion limit (normalize, format_sexpr and == still are).
It merges runs as it reads: the sphere leaves of one read are shared, one
object per dimension, so a leaf joins the run before it by identity, and
only other neighbours are compared with ==.
"""

from __future__ import annotations

import itertools
import math
import re

from .errors import CeilingExceededError, InvalidParameters, SeriesDomainError
from .records import record
from .series import TruncSeries, _invert, _mul, _pow
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
        counts drop out and equal neighbours merge, by identity first. A
        count that is not an int >= 0 raises InvalidParameters."""
        runs: list[tuple[SpaceExpr, int]] = []
        last = None  # the child of runs[-1]
        for a, c in pairs:
            if not isinstance(c, int) or c < 0:
                raise InvalidParameters(f"run counts must be ints >= 0, not {c!r}")
            if runs and (last is a or last == a):
                runs[-1] = (last, runs[-1][1] + c)
            elif c:
                runs.append((a, c))
                last = a
        return _of_merged_runs(cls, runs)

    @property
    def args(self) -> tuple[SpaceExpr, ...]:
        return _repeat_runs(self.runs)


def _of_merged_runs(cls, runs) -> _NAry:
    """The node of runs already maximal and free of zero counts."""
    e = object.__new__(cls)
    object.__setattr__(e, "runs", tuple(runs))
    return e


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
    """Total-order key of the canonical child order, computed once per node.

    Injective: unequal terms never share a key, so sorting by it alone
    fixes the order of every child list. An atom keys on its declarations
    and on whether it has them. A Wedge, Prod or Smash has one entry per
    run, (key, 1, -count), or (key, 0, count) for the last: on canonical
    (sorted) children a run's count matters to the spelled-out child keys
    only through whether a larger key follows."""
    k = e._key
    if k is not None:
        return k
    t = _TAG[type(e)]
    if isinstance(e, Point):
        k = (t, ())
    elif isinstance(e, Sphere):
        k = (t, (e.d,))
    elif isinstance(e, Atom):
        r, lr = e.reduced, e.loop_reduced
        k = (t, (e.name, r is not None, r or (), lr is not None, lr or ()))
    elif isinstance(e, (Wedge, Prod, Smash)):
        n = len(e.runs) - 1
        k = (t, tuple((sort_key(a), 0, c) if i == n else (sort_key(a), 1, -c)
                      for i, (a, c) in enumerate(e.runs)))
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
    distinct object, in first-occurrence order. This forgets the order,
    which normalize() may, since it sorts the runs anyway. A read wedge has
    a run per summand, so only a new object allocates a group."""
    groups: dict[int, list] = {}
    for a, c in runs:
        k = id(a)
        g = groups.get(k)
        if g is None:
            groups[k] = [a, c]
        else:
            g[1] += c
    return list(groups.values())


def _repeat_runs(runs) -> tuple:
    return tuple(itertools.chain.from_iterable(itertools.repeat(a, c) for a, c in runs))


def _nary(cls, runs) -> SpaceExpr:
    """The canonical Wedge, Prod or Smash of canonical (term, count) runs:
    zero counts drop out, same-class children flatten, Point drops out (or
    absorbs a Smash), sphere smash factors merge, and the runs are sorted
    by sort_key, which is injective, so the result is the same whatever the
    order of the runs."""
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
    suspended smashes of its nonempty subsets of factors: one summand per
    nonempty sub-multiset of the runs, counted by the subsets giving it."""
    if isinstance(a, Point):
        return POINT
    if isinstance(a, Sphere):
        return Sphere(a.d + 1)
    if isinstance(a, Wedge):
        return _nary(Wedge, [(_susp(x), c) for x, c in a.runs])
    if isinstance(a, Prod):
        factors, caps = zip(*a.runs)
        return _nary(Wedge, [
            (_susp(_nary(Smash, list(zip(factors, ms)))), math.prod(map(math.comb, caps, ms)))
            for ms in itertools.product(*(range(c + 1) for c in caps))
            if any(ms)
        ])
    return Susp(a)


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
        return _nary(type(e), [(_norm(a, memo), c) for a, c in _tally(e.runs)])
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
    distinct subterm (and per run of a repeated one), not per copy; the sort
    keys it orders children by are per run too. A term
    already canonical comes back as itself; the result is marked canonical,
    so normalize() returns it at once, alone or inside a larger term."""
    out = _norm(e, {})
    object.__setattr__(out, "_canon", True)
    return out


def _cert(e: SpaceExpr):
    """(B, wedge, top) for a canonical e: B is the least sphere dimension of
    Susp(e) when it is certified a wedge of spheres (inf only for the point),
    else None; wedge says e itself is certified, least dimension B - 1; and
    where B is given, top is the top degree of e's reduced homology (inf
    through a loop). Each rule states e and Susp(e) together; products
    certify through the suspension splitting over nonempty subsets of the
    factors, and a smash with B on every factor through any one wedge factor
    W, as W ^ Y is the wedge over the spheres S^d of W of Susp^(d-1)(Susp Y).
    No term is built."""
    if isinstance(e, Point):
        return INF, True, 0
    if isinstance(e, Sphere):
        return e.d + 1, True, e.d
    if isinstance(e, (Wedge, Prod, Smash)):
        runs = [(*_cert(a), c) for a, c in e.runs]
        if any(b is None for b, _, _, _ in runs):
            return None, False, None
        bs, ws, ts, cs = zip(*runs)
        if isinstance(e, Wedge):
            return min(bs), all(ws), max(ts)
        top = sum(t * c for t, c in zip(ts, cs))
        if isinstance(e, Smash):
            return 1 + sum((b - 1) * c for b, c in zip(bs, cs)), any(ws), top
        return min(bs), False, top
    if isinstance(e, Susp):
        b, _, t = _cert(e.arg)
        return (None, False, None) if b is None else (b + 1, True, t + 1)
    if isinstance(e, Loop):
        b, wedge, _ = _cert(e.arg)
        return (b - 1 if wedge and b >= 3 else None), False, INF
    if isinstance(e, HalfSmash):
        (bl, wl, tl), (br, _, tr) = _cert(e.left), _cert(e.right)
        if bl is None or br is None:
            return None, False, None
        return min(bl, bl + br - 1), wl, tl + tr
    return None, False, None


def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _add(a: list[int], b: list[int], c: int = 1) -> list[int]:
    return _trim([x + c * y for x, y in itertools.zip_longest(a, b, fillvalue=0)])


def _times(factors, n: int) -> list[int]:
    """The product through degree n of (coeffs, count) factors, trimmed."""
    out = [1]
    for r, c in factors:
        out = _mul(out, _pow(r, c, n), n)
    return _trim(out)


def _poly_of(pairs: tuple[tuple[int, int], ...]) -> list[int]:
    out = [0] * (pairs[-1][0] + 1 if pairs else 0)
    for d, c in pairs:
        out[d] += c
    return _trim(out)


def _red(e: SpaceExpr, n: int) -> list[int]:
    """Reduced Poincare series of a canonical e through degree n, exact and
    without trailing zeros."""
    if isinstance(e, Point):
        return []
    if isinstance(e, Sphere):
        return [] if e.d > n else [0] * e.d + [1]
    if isinstance(e, Atom):
        if e.reduced is None:
            raise SeriesDomainError(f"atom '{e.name}' has no declared homology")
        return _times([(_poly_of(e.reduced), 1)], n)
    if isinstance(e, Wedge):
        out = []
        for a, c in e.runs:
            out = _add(out, _red(a, n), c)
        return out
    if isinstance(e, Prod):
        return _add(_times([(_add([1], _red(a, n)), c) for a, c in e.runs], n), [-1])
    if isinstance(e, Smash):
        return _times([(_red(a, n), c) for a, c in e.runs], n)
    if isinstance(e, Susp):
        return _times([([0, 1], 1), (_red(e.arg, n), 1)], n)
    if isinstance(e, HalfSmash):
        if _cert(e.left)[0] is None:
            raise SeriesDomainError("half-smash series needs a suspension on the left")
        return _times([(_red(e.left, n), 1), (_add([1], _red(e.right, n)), 1)], n)
    w = e.arg  # e is a Loop, the one kind left
    if isinstance(w, Atom) and w.loop_reduced is not None:
        return _times([(_poly_of(w.loop_reduced), 1)], n)
    b, wedge, _ = _cert(w)
    if not wedge or b < 3:
        raise SeriesDomainError(
            "loop series requires a simply connected wedge of spheres "
            "(or a product of such loops, or an atom with declared loop homology)"
        )
    # W has no homology below degree 2, as its least sphere is S^(B-1)
    return _add(_invert([1] + [-c for c in _red(w, n + 1)[2:]], n), [-1])


def poincare_series(e: SpaceExpr, n: int) -> TruncSeries:
    """Exact Poincare series of e through degree n (constant term 1).

    The series is that of normalize(e), so a raw term gets the series of
    its normal form, and each homotopy rule is applied once, by normalize.
    That has one cost: the normal form of the suspension of a product of k
    distinct factors has 2^k - 1 summands, so such a raw term costs what
    sphere_multiset_of pays for it. TruncSeries.of pads the trimmed
    coefficients to order n; no rule puts reduced homology in degree 0."""
    if n < 0:
        raise InvalidParameters("truncation order must be nonnegative")
    return TruncSeries.of([1] + _red(normalize(e), n)[1:], n)


def sphere_multiset_of(e: SpaceExpr, max_dim: int) -> SphereMultiset:
    """The spheres of normalize(e) through max_dim, truncated exactly when
    its top sphere is above max_dim. A huge ceiling costs a finite wedge
    nothing, but a wedge with a loop is expanded through max_dim. Raises
    CeilingExceededError unless the normalized term is certified a wedge of
    spheres."""
    if max_dim < 1:
        raise InvalidParameters("sphere ceiling must be at least 1")
    c = normalize(e)
    _, wedge, top = _cert(c)
    if not wedge:
        raise CeilingExceededError(f"{type(c).__name__} term not certified a wedge of spheres")
    counts = {d: k for d, k in enumerate(_red(c, max_dim)) if k}
    return SphereMultiset(counts, max_dim, top > max_dim)


def james_split(x: SpaceExpr, cutoff: int) -> SpaceExpr:
    """Expansion of Susp(Loop(Susp(x))) as a sphere wedge through dimension
    `cutoff`, for x whose suspension is certified a wedge of spheres."""
    if cutoff < 1:
        raise InvalidParameters("cutoff must be at least 1")
    counts = sphere_multiset_of(Susp(Loop(Susp(x))), cutoff).counts
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


def _lyndon_content_count(content: list[int], sizes: list[int]) -> int:
    """Number of Lyndon words with content[i] letters drawn from the sizes[i]
    letters of group i.

    The generalised Witt formula: (1/k) sum over e dividing gcd(content) of
    mobius(e) * multinomial(k/e; content/e) * prod sizes[i]^(content[i]/e),
    with k the word length."""
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
        for m, c in zip(content, sizes):
            term = term // math.factorial(m // e) * c ** (m // e)
        total += mu * term
    return total // k


def _contents(weights: list[int], budget: int, start: int = 0):
    """Nonempty letter contents of total weight at most budget, as
    ((i, m_i), ...) with i ascending from start and every m_i >= 1."""
    for i in range(start, len(weights)):
        w = weights[i]
        for m in range(1, budget // w + 1):
            yield ((i, m),)
            for rest in _contents(weights, budget - m * w, i + 1):
                yield ((i, m),) + rest


def hilton_milnor(w: SpaceExpr, cutoff: int) -> SpaceExpr:
    """Loop space of a finite wedge of suspensions as a weak product of loops
    on suspended smashes indexed by Lyndon words.

    Sphere letters weigh their dimension minus one (so a word maps to a
    sphere of dimension 1 + total weight); other suspension letters weigh 1.
    Words whose sphere dimension would exceed `cutoff` are dropped, so the
    result is series-exact through degree cutoff - 1.

    Each run of the wedge is one group of equal letters. The factor for a
    word depends only on how many letters it takes from each group (smash
    factors commute, and the letters of a group are equal), so the product
    is assembled per run content, within the weight budget, with the
    generalised Witt formula giving the number of Lyndon words per content.
    Each content builds one canonical factor and stores it once, as a run
    whose count is that number, so neither the wedge's copies nor the
    millions of words (as for several S^2 at a generous cutoff) are ever
    spelled out. The result is canonical."""
    if cutoff < 1:
        raise InvalidParameters("cutoff must be at least 1")
    wn = normalize(w)
    if isinstance(wn, Point):
        return POINT
    runs = wn.runs if isinstance(wn, Wedge) else ((wn, 1),)
    bases = []
    for s, _ in runs:
        down = desuspend(s)
        if down is None or isinstance(down, Point):
            raise SeriesDomainError(f"wedge summand {format_sexpr(s)} is not a suspension")
        bases.append(down)
    weights = [b.d if isinstance(b, Sphere) else 1 for b in bases]
    factors = []
    for content in _contents(weights, cutoff - 1):
        count = _lyndon_content_count([m for _, m in content], [runs[i][1] for i, _ in content])
        if count:
            inner = _nary(Smash, [(bases[i], m) for i, m in content])
            factors.append((_loop(_susp(inner)), count))
    return _nary(Prod, factors)


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
    return "".join(sexpr_pieces(e))


# the batch size, in characters, of a run's repeated text in sexpr_pieces
_PIECE_CHARS = 1 << 16


def sexpr_pieces(e: SpaceExpr, escape=str):
    """format_sexpr(e) as a stream of strings, each passed through escape
    (a per-character map such as JSON string escaping) once.

    A run is written as its child's text repeated count times, in batches of
    about _PIECE_CHARS characters, and escape sees that text once, not once
    per copy. A longer child is streamed copy by copy instead, so no string
    much longer than _PIECE_CHARS is ever built."""
    if isinstance(e, Point):
        yield escape("point")
    elif isinstance(e, Sphere):
        yield escape(f"(sphere {e.d})")
    elif isinstance(e, Atom):
        yield escape(f'(atom "{e.name}")')
    elif isinstance(e, (Wedge, Prod, Smash)):
        yield escape(f"({_NAME_OF[type(e)]}")
        sep = escape(" ")
        size = _PIECE_CHARS
        if not e.runs:
            yield sep
        for a, c in e.runs:
            # read the child's pieces until they run past size
            head, n = [sep], 0
            pieces = sexpr_pieces(a, escape)
            for p in pieces:
                head.append(p)
                n += len(p)
                if n > size:
                    break
            else:
                text = "".join(head)
                batch = max(1, size // len(text))
                for _ in range(c // batch):
                    yield text * batch
                if c % batch:
                    yield text * (c % batch)
                continue
            yield from head
            yield from pieces
            for _ in range(c - 1):
                yield sep
                yield from sexpr_pieces(a, escape)
        yield escape(")")
    else:
        yield escape(f"({_NAME_OF[type(e)]} ")
        if isinstance(e, (Susp, Loop, Cone)):
            yield from sexpr_pieces(e.arg, escape)
        else:
            yield from sexpr_pieces(e.left, escape)
            yield escape(" ")
            yield from sexpr_pieces(e.right, escape)
        yield escape(")")


def parse_sexpr(text: str) -> SpaceExpr:
    """The term an s-expression spells, with its runs merged as it is read.

    One loop reads the tokens, matched lazily, so a long text is never held
    as a token list, and a sphere leaf as format_sexpr spells it is one
    token. The forms still open wait on a stack, so depth is not bounded by
    the recursion limit, and the whole text is the one child of a root form
    with no head, read by the same branches as every other child. Every
    sphere of one read is one shared object per dimension, so a child joins
    the run before it by identity, and only other neighbours, such as two
    (loop (sphere 2)), are compared with ==. A summand repeated a million
    times costs one run, not a list of its copies that a second pass merges."""
    matches = _TOKEN.finditer(text)
    # keyed by its spelling, and by str(d) for a leaf spelled otherwise
    spheres: dict[str, Sphere] = {}
    # the open form's head, literals, closed runs and open run; the forms around it
    head, literals, runs, last, count = None, [], [], None, 0
    stack = []
    for m in matches:
        if head is None and count:
            raise InvalidParameters("trailing tokens after expression")
        d = m[1]
        if d:
            a = spheres.get(d) or spheres.setdefault(d, Sphere(int(d)))
        elif (tok := m[0]) == "point":
            a = POINT
        elif tok == "(":
            h = next(matches, None)
            # a leaf in head place reads as the '(' it starts with
            h = h and ("(" if h[1] else h[0])
            if h not in _NODE_NAMES:
                raise InvalidParameters(
                    f"unknown constructor {h!r}" if h else "unexpected end of expression"
                )
            stack.append((head, literals, runs, last, count))
            head, literals, runs, last, count = h, [], [], None, 0
            continue
        elif head is None:
            raise InvalidParameters(f"unexpected token {tok!r}")
        elif tok == ")":
            if count:
                runs.append((last, count))
            a = _build(head, literals, runs)
            a = spheres.setdefault(str(a.d), a) if isinstance(a, Sphere) else a
            head, literals, runs, last, count = stack.pop()
        elif tok == '"':
            raise InvalidParameters("unterminated quoted name")
        else:
            try:
                literals.append(tok[1:-1] if tok[0] == '"' else int(tok))
            except ValueError as exc:
                raise InvalidParameters(f"bad literal {tok!r}") from exc
            continue
        if a is last or (type(a) is not Sphere and a == last):
            count += 1
        else:
            if count:
                runs.append((last, count))
            last, count = a, 1
    if stack:
        raise InvalidParameters("missing closing parenthesis")
    if not count:
        raise InvalidParameters("empty expression")
    return last


def _build(head: str, literals: list, runs: list) -> SpaceExpr:
    """The node of a parenthesised form: its head, its literal arguments
    (ints and quoted names) and the runs of its space arguments."""
    cls = _NODE_NAMES[head]
    if cls in (Wedge, Prod, Smash) and not literals:
        return _of_merged_runs(cls, runs)
    args = literals + list(_repeat_runs(runs))
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
    if literals:
        raise InvalidParameters(f"{head} takes space arguments")
    if cls in (Susp, Loop, Cone):
        if len(args) != 1:
            raise InvalidParameters(f"{head} takes exactly one argument")
        return cls(args[0])
    if len(args) != 2:
        raise InvalidParameters(f"{head} takes exactly two arguments")
    return cls(args[0], args[1])
