"""Test-only helper for polyloop.complexes: an isomorphism test of
simplicial complexes.

The package never compares complexes up to relabelling; tests use this to
match book_graph(l, 2l, p) to planar_book(l, p) and to check relabellings. It
is kept here unchanged from the package.
"""

from polyloop.complexes import SimplicialComplex


def _vertex_signature(K: SimplicialComplex, v: int) -> tuple:
    sizes = sorted(len(f) for f in K.faces if v in f)
    return tuple(sizes)


def is_isomorphic(K1: SimplicialComplex, K2: SimplicialComplex) -> bool:
    """Backtracking search for a face-preserving vertex bijection.

    Candidates are pruned by the multiset of sizes of incident faces, which
    is enough at the scale this package works at.
    """
    if K1.ground_size != K2.ground_size or K1.f_vector() != K2.f_vector():
        return False
    sig1 = {v: _vertex_signature(K1, v) for v in range(K1.ground_size)}
    sig2 = {v: _vertex_signature(K2, v) for v in range(K2.ground_size)}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False
    order = sorted(range(K1.ground_size), key=lambda v: (sig1[v], v))
    faces2 = K2.faces

    def extend(i: int, img: dict[int, int], used: set[int]) -> bool:
        if i == len(order):
            return all(
                tuple(sorted(img[v] for v in f)) in faces2 for f in K1.faces
            )
        v = order[i]
        for w in range(K2.ground_size):
            if w in used or sig2[w] != sig1[v]:
                continue
            img[v] = w
            used.add(w)
            ok = all(
                tuple(sorted(img[u] for u in f)) in faces2
                for f in K1.faces
                if all(u in img for u in f)
            )
            if ok and extend(i + 1, img, used):
                return True
            del img[v]
            used.discard(w)
        return False

    return extend(0, {}, set())
