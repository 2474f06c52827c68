"""Test-only reference for the rewrite in polyloop.spacealg.

These are the rewrite pass, fixpoint loop, sort key and s-expression emitter
as they were before normalize() learned to share work: every pass rewrites
every copy of a repeated subterm, re-derives every sort key and compares the
whole tree for equality. They are kept here, unchanged, as the differential
reference that tests/test_spacealg.py sweeps the shared rewrite against.
"""

import itertools

from polyloop.errors import InvalidParameters
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
    desuspend,
)


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
