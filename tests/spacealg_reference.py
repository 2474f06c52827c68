"""Test-only reference for the rewrite and the sphere reports in
polyloop.spacealg.

The rewrite pass, fixpoint loop, sort key and s-expression emitter are kept
as they were before normalize() learned to share work: every pass rewrites
every copy of a repeated subterm, re-derives every sort key and compares the
whole tree for equality.

The sphere engine at the end is the sparse one that sphere_multiset_of and
james_split used before they read their counts off the Poincare series: it
expands a term into sphere counts by convolving dimension dictionaries and
splits loops by summing James smash powers. It calls this module's
normalize(), whose results equal the package's.

Both are kept here, unchanged, as the differential references that
tests/test_spacealg.py sweeps the package against.
"""

import itertools
from collections import Counter

from polyloop.errors import CeilingExceededError, InvalidParameters
from polyloop.spacealg import (
    POINT,
    _NAME_OF,
    _TAG,
    Atom,
    Cone,
    HalfSmash,
    Join,
    Loop,
    Point,
    Prod,
    Smash,
    SpaceExpr,
    Sphere,
    Susp,
    Wedge,
    _runs,
    desuspend,
)
from polyloop.spheres import SphereMultiset


def sort_key(e: SpaceExpr):
    t = _TAG[type(e)]
    if isinstance(e, Point):
        return (t, ())
    if isinstance(e, Sphere):
        return (t, (e.d,))
    if isinstance(e, Atom):
        return (t, (e.name, e.reduced or (), e.loop_reduced or ()))
    if isinstance(e, (Wedge, Prod, Smash)):
        return (t, tuple(sort_key(a) for a in e.args))
    if isinstance(e, (Susp, Loop, Cone)):
        return (t, (sort_key(e.arg),))
    return (t, (sort_key(e.left), sort_key(e.right)))


def _rw(e: SpaceExpr) -> SpaceExpr:
    """One bottom-up rewrite pass."""
    if isinstance(e, (Point, Sphere, Atom)):
        return e
    if isinstance(e, (Wedge, Prod)):
        cls = type(e)
        args = []
        for a in e.args:
            a = _rw(a)
            if isinstance(a, cls):
                args.extend(a.args)
            elif not isinstance(a, Point):
                args.append(a)
        if not args:
            return POINT
        if len(args) == 1:
            return args[0]
        return cls(tuple(sorted(args, key=sort_key)))
    if isinstance(e, Smash):
        args = []
        for a in e.args:
            a = _rw(a)
            if isinstance(a, Point):
                return POINT
            if isinstance(a, Smash):
                args.extend(a.args)
            else:
                args.append(a)
        sph = sum(a.d for a in args if isinstance(a, Sphere))
        if sph:
            args = [Sphere(sph)] + [a for a in args if not isinstance(a, Sphere)]
        if not args:
            return POINT
        if len(args) == 1:
            return args[0]
        return Smash(tuple(sorted(args, key=sort_key)))
    if isinstance(e, Susp):
        a = _rw(e.arg)
        if isinstance(a, Point):
            return POINT
        if isinstance(a, Sphere):
            return Sphere(a.d + 1)
        if isinstance(a, Wedge):
            return Wedge(tuple(Susp(x) for x in a.args))
        if isinstance(a, Prod):
            parts = []
            for r in range(1, len(a.args) + 1):
                for sub in itertools.combinations(a.args, r):
                    inner = sub[0] if len(sub) == 1 else Smash(sub)
                    parts.append(Susp(inner))
            return Wedge(tuple(parts))
        return Susp(a)
    if isinstance(e, Loop):
        a = _rw(e.arg)
        if isinstance(a, Point):
            return POINT
        if isinstance(a, Prod):
            return Prod(tuple(Loop(f) for f in a.args))
        return Loop(a)
    if isinstance(e, Join):
        return Susp(Smash((_rw(e.left), _rw(e.right))))
    if isinstance(e, Cone):
        return POINT
    if isinstance(e, HalfSmash):
        a, b = _rw(e.left), _rw(e.right)
        if isinstance(a, Point):
            return POINT
        if isinstance(b, Point):
            return a
        if a == Sphere(1):
            return Wedge((a, Susp(b)))
        down = desuspend(a)
        if down is not None:
            return Wedge((a, Smash((down, Susp(b)))))
        return HalfSmash(a, b)
    raise InvalidParameters(f"unknown expression node {type(e).__name__}")


def normalize(e: SpaceExpr) -> SpaceExpr:
    """Rewrite to the canonical fixpoint. Idempotent."""
    for _ in range(200):
        nxt = _rw(e)
        if nxt == e:
            return e
        e = nxt
    raise AssertionError("normalization failed to stabilise")


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
        inner = " ".join(format_sexpr(a) for a in e.args)
        return f"({_NAME_OF[type(e)]} {inner})"
    if isinstance(e, (Susp, Loop, Cone)):
        return f"({_NAME_OF[type(e)]} {format_sexpr(e.arg)})"
    return f"({_NAME_OF[type(e)]} {format_sexpr(e.left)} {format_sexpr(e.right)})"


def _convolve(a: dict[int, int], b: dict[int, int], ceiling: int) -> tuple[dict[int, int], bool]:
    out: Counter = Counter()
    dropped = False
    for da, ca in a.items():
        for db, cb in b.items():
            if da + db <= ceiling:
                out[da + db] += ca * cb
            else:
                dropped = True
    return dict(out), dropped


def _james_counts(wcounts: dict[int, int], ceiling: int) -> dict[int, int]:
    """Suspended smash powers of the desuspension of a sphere wedge with
    reduced content `wcounts` (dims >= 2), collected up to the ceiling."""
    base = {d - 1: c for d, c in wcounts.items()}
    out: Counter = Counter()
    power = dict(base)
    while power:
        for d, c in power.items():
            if d + 1 <= ceiling:
                out[d + 1] += c
        power, _ = _convolve(power, base, ceiling - 1)
    return dict(out)


def _to_spheres(e: SpaceExpr, ceiling: int) -> tuple[dict[int, int], bool]:
    if isinstance(e, (Point, Cone)):
        return {}, False
    if isinstance(e, Sphere):
        return ({e.d: 1}, False) if e.d <= ceiling else ({}, True)
    if isinstance(e, Wedge):
        out: Counter = Counter()
        trunc = False
        for a, k in _runs(e):
            c, t = _to_spheres(a, ceiling)
            for d, v in c.items():
                out[d] += v * k
            trunc = trunc or t
        return dict(out), trunc
    if isinstance(e, Smash):
        parts = [p for a, k in _runs(e) for p in [_to_spheres(a, ceiling)] * k]
        if any(not c and not t for c, t in parts):
            return {}, False
        acc, trunc = {0: 1}, any(t for _, t in parts)
        for c, _ in parts:
            acc, dropped = _convolve(acc, c, ceiling)
            trunc = trunc or dropped
        return acc, trunc
    if isinstance(e, Join):
        return _to_spheres(Susp(Smash((e.left, e.right))), ceiling)
    if isinstance(e, HalfSmash):
        # left x| right = left or (left' ^ Susp right); at the level of
        # sphere counts a wedge of spheres is always a suspension, so the
        # desuspended dimensions are just shifted down by one.
        ca, ta = _to_spheres(e.left, ceiling)
        sb, tb = _to_spheres(Susp(e.right), ceiling)
        shifted = {d - 1: c for d, c in ca.items()}
        mixed, dropped = _convolve(shifted, sb, ceiling)
        out = Counter(ca)
        out.update(mixed)
        return dict(out), ta or tb or dropped
    if isinstance(e, Susp):
        inner = e.arg
        if isinstance(inner, Prod):
            parts = []
            for r in range(1, len(inner.args) + 1):
                for sub in itertools.combinations(inner.args, r):
                    parts.append(Susp(sub[0] if len(sub) == 1 else Smash(sub)))
            return _to_spheres(Wedge(tuple(parts)), ceiling)
        if isinstance(inner, Loop):
            wcounts, wtrunc = _to_spheres(inner.arg, ceiling)
            if wcounts and min(wcounts) < 2:
                raise CeilingExceededError("loop target is not simply connected")
            if not wcounts:
                return {}, wtrunc
            return _james_counts(wcounts, ceiling), True
        if isinstance(inner, Smash):
            movable = next(
                (i for i, a in enumerate(inner.args) if isinstance(a, (Loop, Prod))), None
            )
            if movable is not None:
                args = list(inner.args)
                args[movable] = Susp(args[movable])
                return _to_spheres(Smash(tuple(args)), ceiling)
        if isinstance(inner, HalfSmash):
            return _to_spheres(
                Wedge((Susp(inner.left), Susp(Smash((inner.left, inner.right))))), ceiling
            )
        counts, trunc = _to_spheres(inner, ceiling)
        out = {d + 1: c for d, c in counts.items() if d + 1 <= ceiling}
        trunc = trunc or any(d + 1 > ceiling for d in counts)
        return out, trunc
    raise CeilingExceededError(
        f"cannot reduce a {type(e).__name__} node to spheres below the ceiling"
    )


def sphere_multiset_of(e: SpaceExpr, max_dim: int) -> SphereMultiset:
    """Expand e into spheres up to max_dim; infinite families are truncated
    and flagged. Raises CeilingExceededError on irreducible subterms."""
    if max_dim < 1:
        raise InvalidParameters("sphere ceiling must be at least 1")
    counts, truncated = _to_spheres(normalize(e), max_dim)
    return SphereMultiset(dict(sorted(counts.items())), max_dim, truncated)


def _wedge_of_sphere_counts(counts: dict[int, int]) -> SpaceExpr:
    args = []
    for d in sorted(counts):
        args.extend([Sphere(d)] * counts[d])
    if not args:
        return POINT
    return args[0] if len(args) == 1 else Wedge(tuple(args))


def james_split(x: SpaceExpr, cutoff: int) -> SpaceExpr:
    """Expansion of Susp(Loop(Susp(x))) as a sphere wedge through dimension
    `cutoff`, for x reducible to a wedge of spheres."""
    if cutoff < 1:
        raise InvalidParameters("cutoff must be at least 1")
    xn = normalize(x)
    counts, _ = _to_spheres(xn, cutoff)
    counts = {d: c for d, c in counts.items() if d + 1 <= cutoff}
    if not counts:
        return POINT
    out: Counter = Counter()
    power = dict(counts)
    while power:
        for d, c in power.items():
            if d + 1 <= cutoff:
                out[d + 1] += c
        power, _ = _convolve(power, counts, ceiling=cutoff - 1)
    return _wedge_of_sphere_counts(dict(out))
