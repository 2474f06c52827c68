"""Exact homology ranks and the Hochster oracle for moment-angle complexes.

Ranks are over the rationals by sparse integer elimination that never forms
a fraction, so they are exact; torsion is not computed. hochster_zk_betti
evaluates, for a complex K on ground set [m],

    b_j(Z_K) = sum over I subset of [m] of reduced b_{j - |I| - 1}(K_I),

with K_I the full subcomplex on I; the I = {} term gives 1 in degree 0. Each
K_I is the disjoint union of the K_C over the components C of its 1-skeleton,
so the sum runs over the connected vertex sets C of K, each weighted by the
number of I it is a component of. Faces are bitmasks and no K_I is built;
only a C that spans a face of size 3 and is neither a face nor, for K flag,
a cone reaches an elimination. Row reduction on unit pivots follows
Kaczynski, Mischaikow and Mrozek, Computational Homology (Springer 2004).
When K is flag with a chordal 1-skeleton, Z_K is a wedge of spheres
(Grbic, Panov, Theriault and Wu, Trans. AMS 2016) and the table records it;
zk_sphere_multiset extracts it and refuses every other K.
"""

from __future__ import annotations

from math import comb, gcd

from .complexes import SimplicialComplex
from .errors import GhostVertexError, GroundSizeLimitError, InvalidParameters
from .records import record
from .spheres import SphereMultiset


@record
class BettiTable:
    """Nonzero Betti numbers of a moment-angle complex, degree -> rank."""

    ranks: dict[int, int]
    m: int

    def to_json_obj(self) -> dict:
        return {"betti": {str(k): v for k, v in sorted(self.ranks.items())}, "m": self.m}


def _adjacency_masks(K: SimplicialComplex) -> list[int]:
    adj = [0] * K.ground_size
    for a, b in K.faces_of_size(2):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _contributions(K: SimplicialComplex) -> dict[int, int]:
    """Hochster table of K without ghosts. Every face inside I is a clique, so
    K_I is the disjoint union of the K_C over the components C of its
    1-skeleton. For I != {} of size s, reduced b_0(K_I) = c(I) - 1 lands in
    degree s + 1 and E(I) - s + c(I) in degree s + 2; over |I| = s, E(I) sums
    to E C(m-2, s-2) and c(I) counts the connected sets C inside I with their
    outer neighbours N(C) outside it: C(m - |C| - |N(C)|, s - |C|) sets I per
    C. A C that spans larger faces adds, with the same weight, -rank d_2(K_C)
    in degree s + 2 and b_j(K_C) in degree s + j + 1 for j >= 2."""
    m, adj = K.ground_size, _adjacency_masks(K)
    layers = [[sum(1 << v for v in f) for f in K.faces_of_size(k)] for k in range(3, K.dim + 2)]
    shapes: dict[tuple[int, int], int] = {}  # (|C|, |N(C)|) -> connected sets C
    fixes: dict[tuple[int, int, int], int] = {}  # (|C|, |N(C)|, j) -> sum of b_j corrections
    if layers:
        correct = _corrector(K, adj, layers, fixes)
    for v in range(m):
        # grow each C from its least vertex v; every frontier vertex u is
        # either taken or banned, so each C is reached once, with N(C) banned
        stack = [(1 << v, adj[v], (1 << v) - 1)]
        while stack:
            C, near, banned = stack.pop()
            frontier = near & ~(C | banned)
            if frontier:
                u = frontier & -frontier
                stack.append((C, near, banned | u))
                stack.append((C | u, near | adj[u.bit_length() - 1], banned))
            else:
                shape = (C.bit_count(), (near & ~C).bit_count())
                shapes[shape] = shapes.get(shape, 0) + 1
                if layers and shape[0] > 2:
                    correct(C, shape)
    edges, table = len(K.faces_of_size(2)), [1] + [0] * (m + K.dim + 2)
    for s in range(1, m + 1):
        comps = sum(n * comb(m - k - b, s - k) for (k, b), n in shapes.items() if k <= s)
        table[s + 1] += comps - comb(m, s)
        table[s + 2] += comps - s * comb(m, s) + (edges * comb(m - 2, s - 2) if s > 1 else 0)
    for (k, b, j), n in fixes.items():
        for s in range(k, m - b + 1):
            table[s + j + 1] += n * comb(m - k - b, s - k)
    return dict(enumerate(table))


def _corrector(K: SimplicialComplex, adj: list[int], layers: list[list[int]], fixes: dict):
    """The step that adds the corrections of a connected C with |C| >= 3 to
    fixes, for the mask layers of the faces of size 3 and up. K_C is acyclic
    when C is a face or, for K flag, a cone: some v in C is adjacent to all of
    C - v, so every face of K_C spans a face with v. Then rank d_2(K_C) is
    E(C) - |C| + 1; otherwise the faces inside C go through sparse_rank."""
    faces = set().union(*layers)
    stars = [a | 1 << v for v, a in enumerate(adj)] if K.is_flag() else [0] * len(adj)
    boundary: dict[int, dict[int, int]] = {}  # face mask -> row, built on first read

    def row(f: int) -> dict[int, int]:
        r = boundary.get(f)
        if r is None:
            # dropping v from f has sign (-1)^#{u in f: u < v}
            bits = (1 << v for v in range(f.bit_length()) if f >> v & 1)
            r = boundary[f] = {f ^ bit: -1 if j % 2 else 1 for j, bit in enumerate(bits)}
        return r.copy()

    def correct(C: int, shape: tuple[int, int]) -> None:
        degrees, apexes, rest = 0, C, C
        while rest:
            v = (rest & -rest).bit_length() - 1
            degrees += (adj[v] & C).bit_count()
            apexes &= stars[v]
            rest ^= 1 << v
        if C in faces or apexes:
            betti = [shape[0] - 1 - degrees // 2]  # -rank d_2(K_C)
        else:
            inside = [[f for f in layer if not f & ~C] for layer in layers]
            if not inside[0]:
                return
            ranks = [sparse_rank(map(row, layer)) for layer in inside] + [0]
            betti = [-ranks[0]] + [len(hi) - r - q for hi, r, q in zip(inside, ranks, ranks[1:])]
        for j, b in enumerate(betti, 1):
            if b:
                key = shape + (j,)
                fixes[key] = fixes.get(key, 0) + b

    return correct


def sparse_rank(rows) -> int:
    """Rank over Q of integer rows given as {column: entry} dicts with no zero
    entries; the dicts are consumed. Each row is taken once and reduced by the
    pivot rows kept so far, leading column first, until it vanishes or leads
    in a new column and is kept. A pivot a = +-1 clears entry b by subtracting
    a b times its row. Any other pivot scales the row by a / gcd(a, b) first,
    and the result is divided by the gcd of its entries: no fraction arises."""
    pivots: dict[int, dict[int, int]] = {}  # leading column -> pivot row
    for row in rows:
        while row:
            col = min(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            a, b = pivot[col], row[col]
            unit = a in (1, -1)
            if unit:
                factor = a * b
            else:
                g = gcd(a, b)
                factor, row = b // g, {c: a // g * e for c, e in row.items()}
            for c, e in pivot.items():
                if e := row.get(c, 0) - factor * e:
                    row[c] = e
                else:
                    del row[c]  # e == 0 only where row had an entry
            if not unit and row and (g := gcd(*row.values())) > 1:
                row = {c: e // g for c, e in row.items()}
    return len(pivots)


def require_enumerable(K: SimplicialComplex, ceiling: int) -> None:
    """Raise the errors hochster_zk_betti refuses K with: ghosts, or m > ceiling."""
    if note := K.ghost_note():
        raise GhostVertexError(f"{note}: Z_K would carry dead circle factors")
    if (m := K.ground_size) > ceiling:
        raise GroundSizeLimitError(f"ground set size {m} exceeds the enumeration cap {ceiling}")


def hochster_zk_betti(K: SimplicialComplex, *, ceiling: int = 20) -> BettiTable:
    """Full Betti table of Z_K by Hochster's formula, summed over the
    connected vertex sets of K; refuses ghost vertices and ground sets above
    `ceiling`."""
    require_enumerable(K, ceiling)
    table = _contributions(K)
    return BettiTable({j: b for j, b in sorted(table.items()) if b}, K.ground_size)


def zk_sphere_multiset(K: SimplicialComplex, *, ceiling: int = 20) -> SphereMultiset:
    """Sphere dimensions of Z_K read off the Betti table.

    Only for K flag with a chordal 1-skeleton, where Z_K is a wedge of
    spheres and the table (b_0 = 1, one sphere per rank unit above degree 0)
    describes its homotopy type; that is what the decomposition engine
    compares against. Any other K raises InvalidParameters, since its table
    need not come from a wedge of spheres: Z of the 4-cycle is S^3 x S^3.
    Ghost vertices are refused by hochster_zk_betti as before.
    """
    if not K.ghost_note() and not (K.is_flag() and K.is_chordal()):
        raise InvalidParameters(
            "Z_K is certified a wedge of spheres only for a flag complex with a chordal 1-skeleton"
        )
    counts = {j: b for j, b in hochster_zk_betti(K, ceiling=ceiling).ranks.items() if j > 0}
    return SphereMultiset(counts=counts, max_dim=None, truncated=False)
