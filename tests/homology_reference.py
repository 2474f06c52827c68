"""Test-only reference for the Hochster oracle in polyloop.homology.

Reduced Betti numbers of a complex from its full boundary matrices, and full
subcomplexes built one by one as new SimplicialComplex values. The package
reads full subcomplexes off bitmask faces instead and never calls these; they
are kept, unchanged, as the slow references that tests/test_homology.py and
tests/test_complexes.py check the package against.
"""

from polyloop.complexes import Face, SimplicialComplex
from polyloop.errors import InvalidParameters
from polyloop.homology import bareiss_rank


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
