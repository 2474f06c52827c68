"""Test-only reference for the Hochster oracle in polyloop.homology.

Reduced Betti numbers of a complex from its full boundary matrices, and full
subcomplexes built one by one as new SimplicialComplex values. The package
reads full subcomplexes off bitmask faces instead and never calls these; they
are kept, unchanged, as the slow references that tests/test_homology.py and
tests/test_complexes.py check the package against.

Two earlier Hochster kernels over all 2^m subsets are kept verbatim as
differential references for the connected-set sum the package runs now:

- bareiss_rank, _mask_boundary_rank and _subset_contributions
  (bareiss_kernel_table): dense fraction-free (Bareiss) elimination and no
  cone skip;
- _components and _sparse_subset_contributions (subset_kernel_table): the
  sparse kernel that followed, which skips the K_I that are simplices or,
  for K flag, cones, filters every face layer again for each subset and
  ranks larger faces with the package's sparse_rank.

tests/test_homology.py checks the package against both on sweeps of graphs
and of complexes of dimension 2 and up.
"""

from polyloop.complexes import Face, SimplicialComplex
from polyloop.errors import InvalidParameters
from polyloop.homology import _adjacency_masks, sparse_rank


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


def bareiss_kernel_table(K: SimplicialComplex) -> dict[int, int]:
    """The earlier 2^m kernel's Hochster table of K, zero ranks dropped."""
    table = _subset_contributions(K, range(1 << K.ground_size))
    return {j: b for j, b in sorted(table.items()) if b}


def _sparse_subset_contributions(K: SimplicialComplex) -> dict[int, int]:
    """Hochster table of K without ghosts, over all 2^m subsets I. Faces are
    bitmasks and those of K_I are the f with f & ~I == 0, so no subcomplex is
    built. K_I has no reduced homology, and is skipped, when it is a simplex
    or, for K flag, a cone: then some v in I is adjacent to all of I - v, and
    every face of K_I spans a face with v. The rank of the boundary from edges
    to vertices is |I| - c(I), exact over Q and Z, so graphs need no matrix;
    larger faces go through sparse_rank."""
    m, adj = K.ground_size, _adjacency_masks(K)
    layers = [[sum(1 << v for v in f) for f in K.faces_of_size(k)] for k in range(K.dim + 2)]
    face_set, half = set().union(*layers), m // 2
    # boundary rows keyed by face mask: dropping v from f has sign (-1)^#{u in f: u < v}
    boundary = {
        f: {f ^ bit: -1 if j % 2 else 1
            for j, bit in enumerate(1 << v for v in range(f.bit_length()) if f >> v & 1)}
        for layer in layers[3:] for f in layer
    }
    # for K flag, the apexes of a cone K_I are I & AND of star(u) = u + its
    # neighbours over u in I, read from AND tables over each half of [m];
    # zero stars switch the test off for K not flag
    stars = [a | 1 << v for v, a in enumerate(adj)] if K.is_flag() else [0] * m
    low, high = [-1], [-1]
    for v, star in enumerate(stars):
        tab = low if v < half else high
        tab += [t & star for t in tab]
    table = {0: 1}  # I = {}: reduced b_-1 of the empty complex
    for I in range(1, 1 << m):
        if I in face_set or I & low[I & (1 << half) - 1] & high[I >> half]:
            continue
        outside, size = ~I, I.bit_count()
        inside = [[f for f in layer if not f & outside] for layer in layers[2:]]
        counts = [1, size] + [len(layer) for layer in inside]
        ranks = [0, 1, size - _components(I, adj)]
        ranks += [sparse_rank(boundary[f].copy() for f in hi) for hi in inside[1:]] + [0]
        for k, count in enumerate(counts):
            if b := count - ranks[k] - ranks[k + 1]:
                # reduced b_{k-1}(K_I) lands in degree (k - 1) + |I| + 1
                table[k + size] = table.get(k + size, 0) + b
    return table


def subset_kernel_table(K: SimplicialComplex) -> dict[int, int]:
    """The retired sparse 2^m kernel's Hochster table of K, zero ranks dropped."""
    table = _sparse_subset_contributions(K)
    return {j: b for j, b in sorted(table.items()) if b}


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


def full_subcomplex(K: SimplicialComplex, labels) -> SimplicialComplex:
    """Faces contained in `labels`, relabelled order-preservingly to a
    compact ground set of size len(labels)."""
    sub = sorted(set(labels))
    if sub and (sub[0] < 0 or sub[-1] >= K.ground_size):
        raise InvalidParameters("subset labels outside the ground set")
    pos = {v: i for i, v in enumerate(sub)}
    keep = frozenset(
        tuple(pos[v] for v in f) for f in K.faces if all(v in pos for v in f)
    )
    return SimplicialComplex(len(sub), keep)
