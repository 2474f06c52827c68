"""Test-only helpers for polyloop.complexes.

An isomorphism test of simplicial complexes: the package never compares
complexes up to relabelling; tests use this to match book_graph(l, 2l, p) to
planar_book(l, p) and to check relabellings. It is kept here unchanged from
the package.

facets, is_flag and is_chordal are the package's earlier bodies of the
SimplicialComplex methods of those names (a quadratic subset scan, clique
growing, and maximum cardinality search), kept unchanged with self renamed K
as differential references for tests/test_complexes.py.
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


def facets(K: SimplicialComplex) -> list:
    """Maximal nonempty faces, lexicographically sorted."""
    nonempty = [f for f in K.faces if f]
    out = [
        f
        for f in nonempty
        if not any(g != f and set(f) <= set(g) for g in nonempty)
    ]
    return sorted(out)


def is_flag(K: SimplicialComplex) -> bool:
    """True when every set of pairwise adjacent vertices spans a face.

    Singleton sets are pairwise adjacent vacuously, so a ghost vertex
    already breaks flagness. For 1-dimensional complexes this reduces to
    the graph being triangle-free with no ghosts.
    """
    if K.ghosts:
        return False
    verts = K.vertices
    adj = K._adjacency()
    # grow cliques; any clique that is not a face is a witness
    cliques = [tuple([v]) for v in verts]
    while cliques:
        nxt = []
        for c in cliques:
            if c not in K.faces:
                return False
            common = set(v for v in verts if v > c[-1])
            for v in c:
                common &= adj[v]
            for w in sorted(common):
                nxt.append(c + (w,))
        cliques = nxt
    return True


def is_chordal(K: SimplicialComplex) -> bool:
    """True when the 1-skeleton has no induced cycle of length >= 4.

    Maximum cardinality search (Tarjan and Yannakakis): visit next the
    vertex with the most visited neighbours. The graph is chordal exactly
    when the visit order, reversed, is a perfect elimination ordering,
    i.e. when the earlier-visited neighbours of each vertex, minus the
    latest of them, are all adjacent to that latest one.
    """
    adj = K._adjacency()
    weight = dict.fromkeys(adj, 0)
    visited: dict[int, int] = {}
    while weight:
        v = max(weight, key=weight.get)
        del weight[v]
        earlier = [u for u in adj[v] if u in visited]
        if earlier:
            last = max(earlier, key=visited.get)
            if any(u != last and u not in adj[last] for u in earlier):
                return False
        visited[v] = len(visited)
        for u in adj[v]:
            if u in weight:
                weight[u] += 1
    return True
