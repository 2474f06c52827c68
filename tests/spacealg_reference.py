"""Test-only reference for the rewrite, the sphere reports and the series
walk in polyloop.spacealg.

The rewrite pass, fixpoint loop, sort key and s-expression emitter are kept
as they were before normalize() learned to share work: every pass rewrites
every copy of a repeated subterm, re-derives every sort key and compares the
whole tree for equality.

The sphere engine after the rewrite is the sparse one that sphere_multiset_of and
james_split used before they read their counts off the Poincare series: it
expands a term into sphere counts by convolving dimension dictionaries and
splits loops by summing James smash powers. It calls this module's
normalize(), whose results equal the package's.

Both are kept here, unchanged, as the differential references that
tests/test_spacealg.py sweeps the package against; only the sort key's atom
rule changed with the package's, so that unequal atoms never share a key.
The Lyndon word enumeration left the package when hilton_milnor came to
count Lyndon words by content; tests still use it to check those counts.

hilton_milnor after it is the package's as it was before it counted words
per run of the wedge: it spells the wedge out, one letter per summand, and
counts words per content over every summand with Witt's formula and
_compositions, both kept with it. It builds its factors with the package's
_nary, _susp and _loop, but normalizes its input with this module's
rewrite, and it returns a product that is not sorted. Tests compare the
normalized products.

The s-expression reader after hilton_milnor is parse_sexpr as it was before it
read each sphere leaf as one token and merged runs as it read: a leaf is four
tokens, one recursive call and one _build (the package's, as it was, kept
after it), and a Wedge, Prod or Smash is built from the spelled-out list of
its children, whose runs the constructor merges with ==. Tests check that
the package's reader gives the same terms, runs, errors and messages.

to_json_obj and from_json_obj are the JSON mirror {"op": ..., "args": [...]}
of an expression tree that the package carried next to its s-expressions.
The command line only ever wrote s-expressions, so the mirror moved here,
where round-trip tests still check that it carries the same tree.

_red, _poly_of and _top_dim at the end are the series walk as it was before
_red came to stop at its last nonzero coefficient: _red pads every list to
length n + 1 (its Wedge rule zips them), and _top_dim is the second,
structural walk that read the top degree of the series off the terms for the
sphere reports, a degree the package's certificate now states. _mul and _pow before them are the padded
products of polyloop.series they were written against, kept with them.
_tally, wedge_of_spheres_min_dim and susp_wedge_min_dim before _red are the
package's as they were while its series and certificates still took raw
terms, with a rule of their own for Join, Cone, Loop(Point), Loop(Prod) and
contractible children; the package's now take only normal forms. So this
_red reads raw terms, and tests check that the package's _red on the normal
form gives the same coefficients wherever this one gives any and refuses
only where this one refuses too, and that the certificate's top degree
agrees with _top_dim.
"""

import itertools
import math
import re
from collections import Counter

from polyloop.errors import CeilingExceededError, InvalidParameters, SeriesDomainError
from polyloop.series import _invert
from polyloop.spacealg import (
    INF,
    POINT,
    _NAME_OF,
    _NODE_NAMES,
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
    _loop,
    _mobius,
    _nary,
    _susp,
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
        r, lr = e.reduced, e.loop_reduced
        return (t, (e.name, r is not None, r or (), lr is not None, lr or ()))
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
        # desuspend only a canonical left side: one this pass left unfinished
        # waits for the next pass, or its desuspension is read off a
        # non-canonical form
        down = desuspend(a) if _rw(a) == a else None
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
        for a, k in e.runs:
            c, t = _to_spheres(a, ceiling)
            for d, v in c.items():
                out[d] += v * k
            trunc = trunc or t
        return dict(out), trunc
    if isinstance(e, Smash):
        parts = [p for a, k in e.runs for p in [_to_spheres(a, ceiling)] * k]
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
    if sum(counts.values()) < 2:
        return next((Sphere(d) for d in counts), POINT)
    return Wedge.of_runs((Sphere(d), counts[d]) for d in sorted(counts))


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


# a lone '"', the one non-space character the rest skip, is a token to reject
_TOKEN = re.compile(r'\(|\)|"[^"]*"|[^\s()"]+|"')


def parse_sexpr(text: str) -> SpaceExpr:
    # tokens are read lazily, so a long text is never held as a token list
    tokens = map(re.Match.group, _TOKEN.finditer(text))
    spheres: dict[int, Sphere] = {}

    def parse(tok: str) -> SpaceExpr:
        if tok == "point":
            return POINT
        if tok != "(":
            raise InvalidParameters(f"unexpected token {tok!r}")
        head = next(tokens, None)
        if head not in _NODE_NAMES:
            raise InvalidParameters(
                f"unknown constructor {head!r}" if head else "unexpected end of expression"
            )
        args = []
        for tok in tokens:
            if tok == ")":
                break
            if tok == "(" or tok == "point":
                args.append(parse(tok))
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
        # one leaf object per sphere dimension, so the runs of a parsed
        # term are as long as those of the term that was printed
        if head == "sphere" and len(args) == 1 and args[0] in spheres:
            return spheres[args[0]]
        node = _build(head, args)
        return spheres.setdefault(node.d, node) if isinstance(node, Sphere) else node

    first = next(tokens, None)
    if first is None:
        raise InvalidParameters("empty expression")
    expr = parse(first)
    if next(tokens, None) is not None:
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


def _mul(a: list[int], b: list[int], n: int) -> list[int]:
    out = [0] * (n + 1)
    for i, ai in enumerate(a[: n + 1]):
        if ai == 0:
            continue
        for j in range(min(len(b), n + 1 - i)):
            out[i + j] += ai * b[j]
    return out


def _pow(base: list[int], k: int, n: int) -> list[int]:
    """base**k through degree n by binary exponentiation."""
    out = [1] + [0] * n
    while k:
        if k & 1:
            out = _mul(out, base, n)
        k >>= 1
        if k:
            base = _mul(base, base, n)
    return out


def _poly_of(pairs: tuple[tuple[int, int], ...], n: int) -> list[int]:
    out = [0] * (n + 1)
    for d, c in pairs:
        if d <= n:
            out[d] += c
    return out


def _tally(runs) -> list[list]:
    """Runs added up per object wherever they sit: [value, count] for each
    distinct object, in first-occurrence order. This forgets the order, so
    it serves only the series, which are commutative. A read wedge has a
    run per summand, so only a new object allocates a group."""
    groups: dict[int, list] = {}
    for a, c in runs:
        k = id(a)
        g = groups.get(k)
        if g is None:
            groups[k] = [a, c]
        else:
            g[1] += c
    return list(groups.values())


def wedge_of_spheres_min_dim(e: SpaceExpr):
    """A(e): least sphere dimension when e is certified to be a wedge of
    spheres, inf when e is certified contractible, None when uncertified."""
    if isinstance(e, (Point, Cone)):
        return INF
    if isinstance(e, Sphere):
        return e.d
    if isinstance(e, Wedge):
        mins = [wedge_of_spheres_min_dim(a) for a, _ in e.runs]
        return None if None in mins else min(mins, default=INF)
    if isinstance(e, Smash):
        runs = [(wedge_of_spheres_min_dim(a), c) for a, c in e.runs]
        if any(v == INF for v, _ in runs):
            return INF  # a contractible factor decides, whatever the others are
        if all(v is not None for v, _ in runs):
            return sum(v * c for v, c in runs)
        # Smash(Susp(a), b) = Susp(Smash(a, b)): a factor that desuspends,
        # such as a sphere, certifies the others through B; for S^k ^ Y
        # that gives k - 1 + B(Y)
        down = desuspend(e)
        return None if down is None else susp_wedge_min_dim(down)
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
        if isinstance(e, Smash) and any(v == INF for v, _ in runs):
            return INF  # Susp(a ^ b) = Susp(a) ^ b, contractible with Susp(a)
        if any(v is None for v, _ in runs):
            return None
        if isinstance(e, Wedge):
            return min((v for v, _ in runs), default=INF)
        if isinstance(e, Prod):
            return min((v for v, _ in runs if v != INF), default=INF)
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
            out = _mul(out, _pow(r, c, n), n)
        out[0] -= 1
        return out
    if isinstance(e, Smash):
        out = None
        for a, c in _tally(e.runs):
            r = _pow(_red(a, n), c, n)
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
