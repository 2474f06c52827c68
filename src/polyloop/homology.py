"""Exact simplicial homology and the Hochster subset-sum oracle.

Reduced Betti numbers are ranks over the rationals from fraction-free
(Bareiss) integer elimination, so they are exact; torsion is not computed.
The chain complex is the augmented one: the empty face spans degree -1,
hence the empty complex {()} has reduced b_-1 = 1.

hochster_zk_betti evaluates, for a complex K on ground set [m],

    b_j(Z_K) = sum over I subset of [m] of reduced b_{j - |I| - 1}(K_I),

with K_I the full subcomplex on I, read off bitmask faces without building
it. The I = {} term contributes 1 in degree 0.
When K is flag with a chordal 1-skeleton, Z_K is a wedge of spheres
(Grbic, Panov, Theriault and Wu, Trans. AMS 2016) and the table records it;
zk_sphere_multiset extracts it and refuses every other K.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass

from .complexes import Face, SimplicialComplex
from .errors import GhostVertexError, GroundSizeLimitError, InvalidParameters
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


def _boundary_matrix(faces_k: list[Face], faces_km1: list[Face]) -> list[list[int]]:
    index = {f: i for i, f in enumerate(faces_km1)}
    rows = []
    for f in faces_k:
        row = [0] * len(faces_km1)
        for j in range(len(f)):
            row[index[f[:j] + f[j + 1 :]]] = -1 if j % 2 else 1
        rows.append(row)
    return rows


def reduced_betti(K: SimplicialComplex) -> tuple[int, ...]:
    """(b_-1, b_0, ..., b_dim), reduced, rational coefficients."""
    layers = [K.faces_of_size(k) for k in range(K.dim + 2)]
    ranks = [0] * (len(layers) + 1)
    for k in range(1, len(layers)):
        ranks[k] = bareiss_rank(_boundary_matrix(layers[k], layers[k - 1]))
    out = []
    for k in range(len(layers)):
        out.append(len(layers[k]) - ranks[k] - ranks[k + 1])
    return tuple(out)


@dataclass(frozen=True)
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


def _subset_contributions(K: SimplicialComplex, masks: range) -> dict[int, int]:
    """Hochster terms of the subsets I in masks. Faces are bitmasks and those
    of K_I are the f with f & ~I == 0, so no subcomplex is built. The rank of
    the boundary from edges to vertices is |V_I| - c(I), exact over Q and Z,
    so graphs need no matrix; larger faces go through bareiss_rank."""
    sizes = range(max(K.dim, 0) + 2)  # a vertex layer even for the empty complex
    layers = [[sum(1 << v for v in f) for f in K.faces_of_size(k)] for k in sizes]
    adj = [0] * K.ground_size
    for a, b in K.faces_of_size(2):
        adj[a] |= 1 << b
        adj[b] |= 1 << a
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


def _worker(args) -> dict[int, int]:
    K, lo, hi = args
    return _subset_contributions(K, range(lo, hi))


def require_enumerable(K: SimplicialComplex, ceiling: int) -> None:
    """Raise the errors hochster_zk_betti refuses K with: ghosts, or m > ceiling."""
    if K.ghosts:
        raise GhostVertexError(f"ghost vertices {K.ghosts}: Z_K would carry dead circle factors")
    if (m := K.ground_size) > ceiling:
        raise GroundSizeLimitError(f"ground set size {m} exceeds the enumeration cap {ceiling}")


def hochster_zk_betti(
    K: SimplicialComplex, *, ceiling: int = 20, jobs: int | None = 1
) -> BettiTable:
    """Full Betti table of Z_K by summing over all 2^m full subcomplexes.

    Refuses ground sets above `ceiling`. With jobs > 1 the subset range is
    split into contiguous blocks handled by worker processes; the final table
    is a sum, so it is identical for every job count.
    """
    require_enumerable(K, ceiling)
    m = K.ground_size
    total = 1 << m
    if jobs is None:
        jobs = multiprocessing.cpu_count()
    jobs = max(1, min(jobs, total))
    if jobs == 1 or total < 1 << 10:
        table = _subset_contributions(K, range(total))
    else:
        step = -(-total // jobs)
        chunks = [(K, lo, min(lo + step, total)) for lo in range(0, total, step)]
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(_worker, chunks)
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
    if not K.ghosts and not (K.is_flag() and K.is_chordal()):
        raise InvalidParameters(
            "Z_K is certified a wedge of spheres only for a flag complex with a chordal 1-skeleton"
        )
    table = hochster_zk_betti(K, **kwargs)
    if table.ranks.get(0) != 1:
        raise InvalidParameters("expected a connected moment-angle complex with b_0 = 1")
    counts = {j: b for j, b in table.ranks.items() if j > 0}
    return SphereMultiset(counts=counts, max_dim=None, truncated=False)
