"""Exact homology ranks and the Hochster oracle for moment-angle complexes.

Ranks are over the rationals by fraction-free (Bareiss) integer elimination,
so they are exact; torsion is not computed. hochster_zk_betti evaluates, for
a complex K on ground set [m],

    b_j(Z_K) = sum over I subset of [m] of reduced b_{j - |I| - 1}(K_I),

with K_I the full subcomplex on I; the I = {} term gives 1 in degree 0. A
graph enters only through |I| and the edge and component counts of K_I, so its
sum runs over the connected vertex sets of K. Complexes of dimension 2 and up
visit all 2^m subsets, reading K_I off bitmask faces without building it.
When K is flag with a chordal 1-skeleton, Z_K is a wedge of spheres
(Grbic, Panov, Theriault and Wu, Trans. AMS 2016) and the table records it;
zk_sphere_multiset extracts it and refuses every other K.
"""

from __future__ import annotations

from math import comb

from .complexes import SimplicialComplex
from .errors import GhostVertexError, GroundSizeLimitError, InvalidParameters
from .records import record
from .spheres import SphereMultiset


def bareiss_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    m = [row[:] for row in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        for r in range(row + 1, nrows):
            for c in range(col + 1, ncols):
                m[r][c] = (m[row][col] * m[r][c] - m[r][col] * m[row][c]) // prev
            m[r][col] = 0
        prev = m[row][col]
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


@record
class BettiTable:
    """Nonzero Betti numbers of a moment-angle complex, degree -> rank."""

    ranks: dict[int, int]
    m: int

    def to_json_obj(self) -> dict:
        return {"betti": {str(k): v for k, v in sorted(self.ranks.items())}, "m": self.m}


def _components(verts: int, adj: list[int]) -> int:
    """Connected components of the graph induced on the vertex mask verts."""
    count = 0
    while verts:
        todo = verts & -verts
        verts ^= todo
        while todo:
            low = todo & -todo
            reach = adj[low.bit_length() - 1] & verts
            verts ^= reach
            todo ^= low | reach
        count += 1
    return count


def _mask_boundary_rank(faces_k: list[int], faces_km1: list[int]) -> int:
    """Boundary rank between mask layers; dropping v from f has sign (-1)^#{u in f: u < v}."""
    index = {g: i for i, g in enumerate(faces_km1)}
    rows = []
    for f in faces_k:
        row = [0] * len(faces_km1)
        for j, bit in enumerate(1 << v for v in range(f.bit_length()) if f >> v & 1):
            row[index[f ^ bit]] = -1 if j % 2 else 1
        rows.append(row)
    return bareiss_rank(rows)


def _adjacency_masks(K: SimplicialComplex) -> list[int]:
    adj = [0] * K.ground_size
    for a, b in K.faces_of_size(2):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def _graph_contributions(K: SimplicialComplex) -> dict[int, int]:
    """Hochster table of a graph K without ghosts. For I != {} of size s,
    reduced b_0(K_I) = c(I) - 1 lands in degree s + 1 and reduced b_1(K_I) =
    E(I) - s + c(I) in degree s + 2. Over |I| = s, E(I) sums to E C(m-2, s-2)
    and c(I) counts the connected sets C inside I with their outer neighbours
    N(C) outside it: C(m - |C| - |N(C)|, s - |C|) sets I per C."""
    m, adj = K.ground_size, _adjacency_masks(K)
    shapes: dict[tuple[int, int], int] = {}  # (|C|, |N(C)|) -> connected sets C
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
    edges, table = len(K.faces_of_size(2)), [1] + [0] * (m + 2)
    for s in range(1, m + 1):
        comps = sum(n * comb(m - k - b, s - k) for (k, b), n in shapes.items() if k <= s)
        table[s + 1] += comps - comb(m, s)
        table[s + 2] += comps - s * comb(m, s) + (edges * comb(m - 2, s - 2) if s > 1 else 0)
    return dict(enumerate(table))


def _subset_contributions(K: SimplicialComplex, masks: range) -> dict[int, int]:
    """Hochster terms of the subsets I in masks. Faces are bitmasks and those
    of K_I are the f with f & ~I == 0, so no subcomplex is built. The rank of
    the boundary from edges to vertices is |V_I| - c(I), exact over Q and Z,
    so graphs need no matrix; larger faces go through bareiss_rank."""
    sizes = range(max(K.dim, 0) + 2)  # a vertex layer even for the empty complex
    layers = [[sum(1 << v for v in f) for f in K.faces_of_size(k)] for k in sizes]
    adj = _adjacency_masks(K)
    vertex_mask, face_set, table = sum(layers[1]), set().union(*layers), {}
    for I in masks:
        outside, verts = ~I, I & vertex_mask
        if verts and verts in face_set:
            continue  # K_I is a simplex, so its reduced homology vanishes
        inside = [[f for f in layer if not f & outside] for layer in layers[2:]]
        counts = [1, verts.bit_count()] + [len(layer) for layer in inside]
        ranks = [0, 1 if verts else 0, counts[1] - _components(verts, adj)]
        ranks += [_mask_boundary_rank(hi, lo) for lo, hi in zip(inside, inside[1:])] + [0]
        for k, count in enumerate(counts):
            b = count - ranks[k] - ranks[k + 1]
            if b:  # reduced b_{k-1}(K_I) lands in degree (k - 1) + |I| + 1
                j = k + I.bit_count()
                table[j] = table.get(j, 0) + b
    return table


def require_enumerable(K: SimplicialComplex, ceiling: int) -> None:
    """Raise the errors hochster_zk_betti refuses K with: ghosts, or m > ceiling."""
    if note := K.ghost_note():
        raise GhostVertexError(f"{note}: Z_K would carry dead circle factors")
    if (m := K.ground_size) > ceiling:
        raise GroundSizeLimitError(f"ground set size {m} exceeds the enumeration cap {ceiling}")


def hochster_zk_betti(
    K: SimplicialComplex, *, ceiling: int = 20, jobs: int | None = 1
) -> BettiTable:
    """Full Betti table of Z_K by Hochster's formula; refuses ghost vertices
    and ground sets above `ceiling`. A graph (dimension at most 1) takes the
    connected-set sum, serially. Larger complexes sum over all 2^m full
    subcomplexes, and with jobs > 1 (None: one per core) contiguous blocks of
    subsets go to worker processes; the table is a sum, so it is identical for
    every job count.
    """
    require_enumerable(K, ceiling)
    m = K.ground_size
    total = 1 << m
    if K.dim <= 1:
        table = _graph_contributions(K)
    elif total < 1 << 10 or (jobs is not None and jobs <= 1):
        table = _subset_contributions(K, range(total))
    else:
        import multiprocessing  # only the pool needs it: graphs and serial runs skip the import

        jobs = min(jobs or multiprocessing.cpu_count(), total)
        step = -(-total // jobs)
        chunks = [(K, range(lo, min(lo + step, total))) for lo in range(0, total, step)]
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.starmap(_subset_contributions, chunks)
        table = {}
        for part in parts:
            for j, b in part.items():
                table[j] = table.get(j, 0) + b
    return BettiTable({j: b for j, b in sorted(table.items()) if b}, m)


def zk_sphere_multiset(K: SimplicialComplex, **kwargs) -> SphereMultiset:
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
    table = hochster_zk_betti(K, **kwargs)
    if table.ranks.get(0) != 1:
        raise InvalidParameters("expected a connected moment-angle complex with b_0 = 1")
    counts = {j: b for j, b in table.ranks.items() if j > 0}
    return SphereMultiset(counts=counts, max_dim=None, truncated=False)
